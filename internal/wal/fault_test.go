package wal

// Fault-injection and write-path tests: Append only buffers, a Commit
// makes one write and one fsync for every frame buffered before it, a
// failed flush truncates back to the last good frame boundary and fails
// the log, and the log must refuse all work after a failed fsync (the
// kernel may have dropped the dirty pages; "durable" can no longer be
// trusted).

import (
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// faultFile wraps the real segment file and injects one short write
// and/or a persistent fsync error.
type faultFile struct {
	*os.File
	shortNext  int // next Write persists only this many bytes, then errors (-1: off)
	syncErr    error
	shortWrote bool
}

var errInjectedWrite = errors.New("injected: short write")

func (f *faultFile) Write(b []byte) (int, error) {
	if f.shortNext >= 0 {
		n := f.shortNext
		if n > len(b) {
			n = len(b)
		}
		f.shortNext = -1
		f.shortWrote = true
		f.File.Write(b[:n]) // garbage lands on disk, offset advances
		return n, errInjectedWrite
	}
	return f.File.Write(b)
}

func (f *faultFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.File.Sync()
}

// countFile wraps the real segment file and counts the writes and
// fsyncs the log makes through it (the interval timer's syncs run on
// their own goroutine, hence the atomics).
type countFile struct {
	*os.File
	writes, syncs atomic.Int64
}

func (f *countFile) Write(b []byte) (int, error) {
	f.writes.Add(1)
	return f.File.Write(b)
}

func (f *countFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// segmentFile returns l's active segment file, which must still be the
// *os.File Open or Snapshot made. The caller holds l.mu.
func segmentFile(t *testing.T, l *Log) *os.File {
	t.Helper()
	real, ok := l.f.(*os.File)
	if !ok {
		t.Fatalf("log file is %T, want *os.File", l.f)
	}
	return real
}

// inject swaps l's segment file for a faultFile and returns it.
func inject(t *testing.T, l *Log) *faultFile {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	ff := &faultFile{File: segmentFile(t, l), shortNext: -1}
	l.f = ff
	return ff
}

// count swaps l's segment file for a countFile and returns it.
func count(t *testing.T, l *Log) *countFile {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	cf := &countFile{File: segmentFile(t, l)}
	l.f = cf
	return cf
}

// TestAppendRepairsShortWrite forces a flush write that persists only
// part of the buffered frames. Append only buffers, so the fault fires
// inside Commit, which must return it. The frames were already accepted
// by Append and cannot be retracted, so the log fails — but first it
// truncates the torn bytes, so recovery reads every frame flushed before
// the fault with no torn tail.
func TestAppendRepairsShortWrite(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2; id++ {
		if _, err := l.Append(Record{Op: OpSchedule, ID: id, Deadline: int64(id * 10)}); err != nil {
			t.Fatalf("append %d: %v", id, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	ff := inject(t, l)

	ff.shortNext = 5 // part of the frame header reaches the disk
	lsn, err := l.Append(Record{Op: OpSchedule, ID: 3, Deadline: 30})
	if err != nil {
		t.Fatalf("buffered append: %v", err)
	}
	if ff.shortWrote {
		t.Fatal("Append wrote instead of buffering")
	}
	if err := l.Commit(lsn); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("Commit over a short write = %v, want injected error", err)
	}
	if !ff.shortWrote {
		t.Fatal("fault never triggered")
	}
	if !l.Stats().Failed {
		t.Fatal("failed flush left the log accepting work")
	}
	if _, err := l.Append(Record{Op: OpSchedule, ID: 4, Deadline: 40}); !errors.Is(err, ErrFailed) {
		t.Fatalf("Append after failed flush = %v, want ErrFailed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, res, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if res.Torn {
		t.Fatalf("repaired log reports torn (%d bytes)", res.TornBytes)
	}
	if res.LogRecords != 2 {
		t.Fatalf("recovered %d records, want 2 (ids 1,2)", res.LogRecords)
	}
	for _, id := range []uint64{1, 2} {
		if _, ok := res.State.Timers[id]; !ok {
			t.Fatalf("timer %d lost after short-write repair", id)
		}
	}
}

// TestSizeFlushFailureRejectsAppend fills the buffer until an Append
// must flush it first, and fails that flush: the Append returns the
// error without taking an LSN, so its record is not in the log, and
// recovery reads the committed prefix with no torn tail.
func TestSizeFlushFailureRejectsAppend(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Op: OpSchedule, ID: 1, Deadline: 10}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	ff := inject(t, l)
	ff.shortNext = 7
	payload := make([]byte, 1<<10)
	var last LSN
	for id := uint64(2); ; id++ {
		lsn, err := l.Append(Record{Op: OpSchedule, ID: id, Deadline: 10, Payload: payload})
		if err != nil {
			if !errors.Is(err, errInjectedWrite) {
				t.Fatalf("append %d = %v, want injected error", id, err)
			}
			break
		}
		if id > uint64(2+2*flushBytes/len(payload)) {
			t.Fatal("buffer never flushed")
		}
		last = lsn
	}
	st := l.Stats()
	if !st.Failed || st.LSN != last {
		t.Fatalf("after failed size flush: failed=%v lsn=%d, want failed and lsn %d", st.Failed, st.LSN, last)
	}
	l.Close()

	_, res, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || res.LogRecords != 1 {
		t.Fatalf("recovered %d records (torn=%v), want the 1 committed", res.LogRecords, res.Torn)
	}
}

// TestCommitIsOneWrite pins the group write: a bare Append makes no
// write, and 40 appends then one Commit — a schedule-batch of 40 — make
// exactly one write and one fsync.
func TestCommitIsOneWrite(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	cf := count(t, l)
	var lsn LSN
	for id := uint64(1); id <= 40; id++ {
		var err error
		if lsn, err = l.Append(Record{Op: OpSchedule, ID: id, Deadline: 10}); err != nil {
			t.Fatal(err)
		}
		if w := cf.writes.Load(); w != 0 {
			t.Fatalf("append %d made %d writes, want 0", id, w)
		}
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if w, s := cf.writes.Load(), cf.syncs.Load(); w != 1 || s != 1 {
		t.Fatalf("40 appends + Commit made %d writes and %d fsyncs, want 1 and 1", w, s)
	}
	if st := l.Stats(); st.Durable != 40 || st.DurableBytes != st.SegmentBytes {
		t.Fatalf("after Commit: %+v, want every byte durable", st)
	}
}

// TestSnapshotAndCloseFlush checks the two flush points that are not a
// Commit: Snapshot writes the buffered frames to the old segment before
// rotating, and Close writes the new segment's before closing it.
func TestSnapshotAndCloseFlush(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	cf := count(t, l)
	if _, err := l.Append(Record{Op: OpSchedule, ID: 1, Deadline: 10}); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]Record{{Op: OpSchedule, ID: 1, Deadline: 10}}); err != nil {
		t.Fatal(err)
	}
	if w := cf.writes.Load(); w != 1 {
		t.Fatalf("Snapshot made %d writes to the old segment, want 1", w)
	}
	cf = count(t, l)
	if _, err := l.Append(Record{Op: OpSchedule, ID: 2, Deadline: 20}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if w := cf.writes.Load(); w != 1 {
		t.Fatalf("Close made %d writes, want 1", w)
	}
	_, res := mustOpen(t, dir, Options{})
	if res.LogRecords != 1 || len(res.State.Timers) != 2 {
		t.Fatalf("reopen: %d segment records, %d timers; want 1 and 2", res.LogRecords, len(res.State.Timers))
	}
}

// TestIntervalSyncsLoneRecord: a record nobody commits is fsynced by
// the interval timer within a few SyncIntervals of its append.
func TestIntervalSyncsLoneRecord(t *testing.T) {
	const every = 50 * time.Millisecond
	l, _ := mustOpen(t, t.TempDir(), Options{SyncInterval: every})
	defer l.Close()
	start := time.Now()
	if _, err := l.Append(Record{Op: OpSchedule, ID: 1, Deadline: 10}); err != nil {
		t.Fatal(err)
	}
	for l.Stats().Durable < 1 {
		if time.Since(start) > 5*every {
			t.Fatalf("record still volatile %v after append (SyncInterval %v)", time.Since(start), every)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIntervalSleepsWhileDurable: once a Commit catches up, the interval
// timer is stopped, so no further fsync happens over three intervals.
func TestIntervalSleepsWhileDurable(t *testing.T) {
	const every = 5 * time.Millisecond
	l, _ := mustOpen(t, t.TempDir(), Options{SyncInterval: every})
	defer l.Close()
	lsn, err := l.Append(Record{Op: OpSchedule, ID: 1, Deadline: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	syncs := l.Stats().Syncs
	time.Sleep(3 * every)
	if got := l.Stats().Syncs; got != syncs {
		t.Fatalf("syncs moved %d -> %d with every record durable", syncs, got)
	}
	l.mu.Lock()
	armed := l.armed
	l.mu.Unlock()
	if armed {
		t.Fatal("interval timer still armed with every record durable")
	}
}

// TestIdleLogArmsNoTimer: a log nobody appends to never creates the
// interval timer, let alone fsyncs on it.
func TestIdleLogArmsNoTimer(t *testing.T) {
	const every = 5 * time.Millisecond
	l, _ := mustOpen(t, t.TempDir(), Options{SyncInterval: every})
	defer l.Close()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * every)
	l.mu.Lock()
	timer, armed := l.interval, l.armed
	l.mu.Unlock()
	if timer != nil || armed || l.Stats().Syncs != 0 {
		t.Fatalf("idle log: timer=%v armed=%v syncs=%d", timer != nil, armed, l.Stats().Syncs)
	}
}

// TestStaleIntervalFiringKeepsNewerArming replays the race the
// generation guard exists for: an arming's firing is already under way
// when a Commit stops it, and a new append re-arms before the stale
// callback runs. The stale callback must leave the new arming alone;
// the new arming's own firing then syncs.
func TestStaleIntervalFiringKeepsNewerArming(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{SyncInterval: time.Hour})
	defer l.Close()
	if _, err := l.Append(Record{Op: OpSchedule, ID: 1, Deadline: 10}); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	l.interval.Stop() // the timer "fires": the Commit below cannot cancel it
	l.mu.Unlock()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(Record{Op: OpSchedule, ID: 2, Deadline: 20})
	if err != nil {
		t.Fatal(err)
	}
	l.intervalFired() // the first arming's callback, arriving late
	l.mu.Lock()
	armed := l.armed
	l.mu.Unlock()
	if !armed || l.Stats().Durable == lsn {
		t.Fatalf("stale firing acted: armed=%v durable=%d", armed, l.Stats().Durable)
	}
	l.intervalFired() // the second arming's own firing
	if st := l.Stats(); st.Durable != lsn {
		t.Fatalf("current firing left durable=%d, want %d", st.Durable, lsn)
	}
}

// TestSyncFailureFailsLog drives one fsync error through Commit and
// asserts the log transitions to failed: the error reaches the caller
// (no false ack) and every later mutation returns ErrFailed.
func TestSyncFailureFailsLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(Record{Op: OpSchedule, ID: 1, Deadline: 10})
	if err != nil {
		t.Fatal(err)
	}
	ff := inject(t, l)
	ff.syncErr = errors.New("injected: fsync lost the pages")

	if err := l.Commit(lsn); err == nil {
		t.Fatal("Commit swallowed the fsync error")
	}
	if !l.Stats().Failed {
		t.Fatal("fsync error did not fail the log")
	}
	if _, err := l.Append(Record{Op: OpSchedule, ID: 2, Deadline: 20}); !errors.Is(err, ErrFailed) {
		t.Fatalf("Append on failed log = %v, want ErrFailed", err)
	}
	if err := l.Commit(lsn); !errors.Is(err, ErrFailed) {
		t.Fatalf("Commit on failed log = %v, want ErrFailed", err)
	}
	if err := l.Snapshot(nil); !errors.Is(err, ErrFailed) {
		t.Fatalf("Snapshot on failed log = %v, want ErrFailed", err)
	}
	// Close still releases the descriptor; recovery owns the rest.
	if err := l.Close(); err != nil {
		t.Fatalf("close failed log: %v", err)
	}

	// What DID reach the disk before the failure replays normally.
	_, res, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, ok := res.State.Timers[1]; !ok {
		t.Fatal("pre-failure record lost")
	}
}

// TestStateTracksIDHighWater pins the allocator seed semantics: NextID
// is the max over every timer ID the log ever named — schedules,
// settles of compacted-away admissions, and explicit OpHighWater pins —
// never just the outstanding set.
func TestStateTracksIDHighWater(t *testing.T) {
	st := NewState()
	st.Apply(Record{Op: OpSchedule, ID: 5, Deadline: 50})
	st.Apply(Record{Op: OpFire, ID: 5})
	if st.NextID != 5 {
		t.Fatalf("NextID=%d after schedule+fire of 5", st.NextID)
	}
	st.Apply(Record{Op: OpCancel, ID: 12}) // settled history survived as a lone cancel
	if st.NextID != 12 {
		t.Fatalf("NextID=%d, want 12 from cancel record", st.NextID)
	}
	st.Apply(Record{Op: OpHighWater, ID: 40})
	if st.NextID != 40 {
		t.Fatalf("NextID=%d, want 40 from high-water pin", st.NextID)
	}
	st.Apply(Record{Op: OpSchedule, ID: 14, Deadline: 140})
	if st.NextID != 40 {
		t.Fatalf("NextID=%d regressed below the pin", st.NextID)
	}
	// Lease IDs are a different namespace and must not move the mark.
	st.Apply(Record{Op: OpLeaseGrant, ID: 90, Deadline: 900})
	if st.NextID != 40 {
		t.Fatalf("NextID=%d, lease grant leaked into timer IDs", st.NextID)
	}
	if len(st.Timers) != 1 || st.Scheduled != 2 {
		t.Fatalf("ledger drifted: timers=%d scheduled=%d", len(st.Timers), st.Scheduled)
	}
}

// TestLeaseHighWaterSurvivesSeed: the lease-ID high-water follows every
// lease record, and a compaction seed pins it, so a released lease's ID
// stays reserved after the log is compacted. Pins written before the
// high-water joined the ledger (three counts, or no payload at all)
// still decode.
func TestLeaseHighWaterSurvivesSeed(t *testing.T) {
	st := NewState()
	st.Apply(Record{Op: OpLeaseGrant, ID: 1, Deadline: 10})
	st.Apply(Record{Op: OpLeaseGrant, ID: 2, Deadline: 10})
	st.Apply(Record{Op: OpLeaseExpire, ID: 2})
	if st.NextLeaseID != 2 {
		t.Fatalf("NextLeaseID=%d after granting 1 and 2, want 2", st.NextLeaseID)
	}
	seeded := NewState()
	for _, rec := range st.Seed(0) {
		seeded.Apply(rec)
	}
	if seeded.NextLeaseID != 2 || len(seeded.Leases) != 1 || seeded.LeasesExpired != 1 {
		t.Fatalf("seeded: NextLeaseID=%d leases=%d expired=%d, want 2/1/1",
			seeded.NextLeaseID, len(seeded.Leases), seeded.LeasesExpired)
	}

	old := NewState()
	old.Apply(Record{Op: OpHighWater, ID: 9, Payload: []byte{5, 3, 1}})
	if old.Fired != 5 || old.Cancelled != 3 || old.LeasesExpired != 1 || old.NextLeaseID != 0 || old.NextID != 9 {
		t.Fatalf("3-field pin: fired=%d cancelled=%d expired=%d leaseHW=%d next=%d, want 5/3/1/0/9",
			old.Fired, old.Cancelled, old.LeasesExpired, old.NextLeaseID, old.NextID)
	}
	bare := NewState()
	bare.Apply(Record{Op: OpHighWater, ID: 4})
	if bare.NextID != 4 || bare.Fired != 0 || bare.NextLeaseID != 0 {
		t.Fatalf("bare pin: next=%d fired=%d leaseHW=%d, want 4/0/0", bare.NextID, bare.Fired, bare.NextLeaseID)
	}
	for _, bad := range [][]byte{{5, 3}, {5, 3, 1, 2, 7}, {0x80}} {
		s := NewState()
		s.Apply(Record{Op: OpHighWater, ID: 1, Payload: bad})
		if s.Fired != 0 || s.NextLeaseID != 0 {
			t.Fatalf("malformed pin %v applied a ledger: fired=%d leaseHW=%d", bad, s.Fired, s.NextLeaseID)
		}
	}
}
