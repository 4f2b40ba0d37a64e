package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// logFile is the file surface the log flushes through. *os.File
// satisfies it; tests substitute wrappers to count writes and to
// exercise the flush-failure and fsync-failure paths.
type logFile interface {
	io.Writer
	Sync() error
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Close() error
}

// Options tunes a log's fsync batching. The zero value syncs only on
// Commit, Sync, Snapshot, and Close — every Commit is still durable
// (group-committed), but appends that nobody waits on ride along with
// the next sync.
//
// Appended frames are buffered in memory and reach the file in one
// write(2) at the next Commit, Sync, Snapshot or Close (or once 64 KiB
// have collected), so an uncommitted record can be lost to a process
// crash as well as to power loss — within the same window these
// options bound.
type Options struct {
	// SyncEvery fsyncs once this many appended records are not yet
	// durable: 1 makes every append durable before Append returns, N
	// batches N records per fsync, 0 disables count-triggered syncs.
	SyncEvery int
	// SyncInterval bounds how long a record that nobody Commits can
	// stay volatile: the first append that leaves a record unsynced arms
	// a one-shot timer, and a sync that makes every record durable stops
	// it, so an idle or fully committed log never wakes. 0 disables it.
	SyncInterval time.Duration
}

// flushBytes caps the frames Append buffers: an append that finds this
// many bytes waiting writes them out before adding its own frame.
const flushBytes = 64 << 10

// LSN is a log sequence number: the 1-based count of records appended.
// LSNs are monotonic across snapshots and rotations.
type LSN = uint64

// Stats is the log's counter snapshot, exported by twd's /metrics.
type Stats struct {
	// Epoch is the active segment's epoch (bumped by each snapshot).
	Epoch uint64
	// LSN is the last appended record; Durable the last known fsynced.
	LSN, Durable LSN
	// Appends, Syncs, Snapshots count operations since Open.
	Appends, Syncs, Snapshots uint64
	// SegmentBytes is the active segment's size; DurableBytes the prefix
	// of it known to be on stable storage (always a frame boundary — the
	// replication streamer serves exactly this prefix, so a standby never
	// sees a record that could still be lost).
	SegmentBytes, DurableBytes int64
	// SegBaseLSN is the LSN of the last record that is NOT in the active
	// segment: record k of the segment (1-based) has LSN SegBaseLSN+k.
	SegBaseLSN LSN
	// Failed reports an unrecoverable I/O error: every mutation returns
	// ErrFailed and the daemon should be restarted to recover from disk.
	Failed bool
}

// Log is an append-only record log over one directory:
//
//	wal-<epoch>.log    the active (and only) segment
//	snap-<epoch>.snap  the snapshot that seeds epoch <epoch>
//
// Appends serialize on an internal mutex and frame into a buffer;
// writes and fsyncs are group-committed (every waiter of one sync shares
// a single write and a single fsync syscall, and the mutex is not held
// across the fsync, so appends continue while the disk works). Snapshot
// compacts: it atomically writes the caller's record set as the new
// epoch's seed, rotates to a fresh segment, and deletes older epochs.
type Log struct {
	dir string
	opt Options

	mu          sync.Mutex
	cond        *sync.Cond
	f           logFile
	epoch       uint64
	buf         []byte // frames appended but not yet written to f
	lsn         LSN
	durable     LSN
	segBase     LSN // LSN of the last record not in the active segment
	syncing     bool
	closed      bool
	failed      bool  // unrecoverable I/O error; every mutation returns ErrFailed
	size        int64 // active segment size, buffered frames included
	durableSize int64 // bytes of the active segment known fsynced (frame-aligned)

	// The SyncInterval timer: armed while some record may be unsynced.
	// armGen counts armings and fireGen the firings consumed; a firing
	// acts only when it is the current arming's own, so a stale one
	// (stopped too late to cancel) cannot clear a newer arming.
	interval        *time.Timer
	armed           bool
	armGen, fireGen uint64

	appends   atomic.Uint64
	syncs     atomic.Uint64
	snapshots atomic.Uint64
}

// RecoverResult reports what Open reconstructed from disk.
type RecoverResult struct {
	// State is the replayed state: the exact outstanding timer and
	// lease sets as of the last valid frame. twd keeps applying to it,
	// so it is live after Open returns; the scalars below are not.
	State *State
	// Outstanding, Leases and Sealed are State's timer count, lease
	// count and seal flag as recovered, fixed at Open.
	Outstanding, Leases int
	Sealed              bool
	// Epoch is the recovered (now active) epoch.
	Epoch uint64
	// SnapshotRecords and LogRecords count frames replayed from the
	// snapshot seed and the segment.
	SnapshotRecords, LogRecords uint64
	// Torn reports that the segment ended in an invalid frame — a torn
	// or truncated tail, now discarded; TornBytes is how many trailing
	// bytes were dropped. A cleanly sealed log is never torn.
	Torn      bool
	TornBytes int64
}

// Open opens (creating if needed) the log in dir, replays snapshot +
// segment into a RecoverResult, truncates any torn tail, and leaves the
// log positioned for appending. Frames are applied as they decode; no
// record list is built.
func Open(dir string, opt Options) (*Log, *RecoverResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	epoch, err := activeEpoch(dir)
	if err != nil {
		return nil, nil, err
	}
	res := &RecoverResult{State: NewState(), Epoch: epoch}

	if epoch > 0 {
		snap, err := os.ReadFile(snapPath(dir, epoch))
		if err != nil && !os.IsNotExist(err) {
			return nil, nil, err
		}
		// Size the timer table once for the snapshot's outstanding set
		// instead of growing it through every doubling.
		res.State.Timers = make(map[uint64]TimerState, countOp(snap, OpSchedule))
		n, _, snapTorn := applyFrames(snap, res.State)
		res.SnapshotRecords = n
		res.Torn = snapTorn
	}

	logFile := walPath(dir, epoch)
	seg, err := os.ReadFile(logFile)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	nrec, validLen, torn := applyFrames(seg, res.State)
	res.LogRecords = nrec
	res.Outstanding = len(res.State.Timers)
	res.Leases = len(res.State.Leases)
	res.Sealed = res.State.Sealed

	f, err := os.OpenFile(logFile, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if torn {
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		res.Torn = true
		res.TornBytes = st.Size() - validLen
		// Drop the torn tail so the next frame appends at a valid
		// boundary; leaving it would strand every future frame behind
		// garbage the reader stops at.
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, nil, err
	}

	l := &Log{
		dir:         dir,
		opt:         opt,
		f:           f,
		epoch:       epoch,
		size:        validLen,
		durableSize: validLen,
		lsn:         nrec,
		durable:     nrec, // everything replayed is on disk by definition
	}
	l.cond = sync.NewCond(&l.mu)
	// A crash between a snapshot's rename and its old-epoch deletion
	// leaves stale files behind; sweep them now that the active epoch
	// is recovered and durable.
	for e := epoch; e > 0; e-- {
		removedAny := os.Remove(walPath(dir, e-1)) == nil
		if e-1 > 0 && os.Remove(snapPath(dir, e-1)) == nil {
			removedAny = true
		}
		if !removedAny {
			break
		}
	}
	return l, res, nil
}

// Append frames rec into the log's buffer and returns its LSN. The
// record reaches the operating system at the next Commit, Sync,
// Snapshot or Close, and stable storage at the next fsync; call
// Commit(lsn) before acknowledging the operation to a client, or rely on
// the SyncEvery/SyncInterval policy for bounded-loss batching. Append
// fails only on bad input, a closed or failed log, or a failed flush of
// the frames already buffered — never leaving rec half in the log.
func (l *Log) Append(rec Record) (LSN, error) {
	if rec.Op == 0 || rec.Op > opMax {
		return 0, ErrBadOp
	}
	if len(rec.Payload) > MaxPayload {
		return 0, ErrPayloadTooLarge
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.failed {
		l.mu.Unlock()
		return 0, ErrFailed
	}
	if len(l.buf) >= flushBytes {
		if err := l.flushLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	n := len(l.buf)
	l.buf = appendFrame(l.buf, rec)
	l.lsn++
	lsn := l.lsn
	l.size += int64(len(l.buf) - n)
	pending := l.lsn - l.durable
	if !l.armed && l.opt.SyncInterval > 0 {
		l.armIntervalLocked()
	}
	l.mu.Unlock()
	l.appends.Add(1)

	if l.opt.SyncEvery > 0 && pending >= LSN(l.opt.SyncEvery) {
		if err := l.Commit(lsn); err != nil {
			return lsn, err
		}
	}
	return lsn, nil
}

// flushLocked writes the buffered frames to the segment in one write.
// The frames were already accepted by Append, so a failed or short
// write cannot be retracted: it truncates the file back to the last
// flushed frame boundary, so recovery reads a clean prefix with no torn
// tail, and fails the log, as a failed fsync does.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		flushed := l.size - int64(len(l.buf))
		if _, serr := l.f.Seek(flushed, 0); serr == nil {
			l.f.Truncate(flushed)
		}
		l.buf = l.buf[:0]
		l.failed = true
		l.cond.Broadcast()
		return err
	}
	l.buf = l.buf[:0]
	return nil
}

// armIntervalLocked starts the SyncInterval timer for a record that
// has just become unsynced with no timer pending.
func (l *Log) armIntervalLocked() {
	l.armed = true
	l.armGen++
	if l.interval == nil {
		l.interval = time.AfterFunc(l.opt.SyncInterval, l.intervalFired)
	} else {
		l.interval.Reset(l.opt.SyncInterval)
	}
}

// disarmIntervalLocked stops the timer once every record is durable. A
// firing already under way still arrives; it is counted consumed here
// only when Stop cancelled it.
func (l *Log) disarmIntervalLocked() {
	if !l.armed {
		return
	}
	l.armed = false
	if l.interval.Stop() {
		l.fireGen++
	}
}

// intervalFired is the SyncInterval timer's callback: it syncs every
// appended record unless this firing belongs to an arming already
// stopped.
func (l *Log) intervalFired() {
	l.mu.Lock()
	l.fireGen++
	current := l.fireGen == l.armGen && l.armed
	if current {
		l.armed = false
	}
	l.mu.Unlock()
	if current {
		_ = l.Sync()
	}
}

// Commit blocks until every record up to lsn is on stable storage,
// group-committing: concurrent committers share one fsync, and the
// append path keeps running while the disk works.
func (l *Log) Commit(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < lsn {
		if l.closed {
			return ErrClosed
		}
		if l.failed {
			return ErrFailed
		}
		if l.syncing {
			// Someone else's fsync is in flight; it may or may not cover
			// lsn — wait and re-check.
			l.cond.Wait()
			continue
		}
		// One write hands every buffered frame to the fsync below;
		// anything appended while the disk works waits for the next one.
		if err := l.flushLocked(); err != nil {
			return err
		}
		l.syncing = true
		f := l.f
		high := l.lsn
		highSize := l.size
		l.mu.Unlock()
		err := f.Sync()
		l.mu.Lock()
		l.syncing = false
		l.syncs.Add(1)
		if err == nil && high > l.durable {
			l.durable = high
			if highSize > l.durableSize {
				l.durableSize = highSize
			}
			if l.durable == l.lsn {
				l.disarmIntervalLocked()
			}
		}
		if err != nil {
			// After a failed fsync the kernel may have dropped the dirty
			// pages it could not write: retrying can report success for
			// data that never reached the disk. Durability is
			// unknowable from here on, so the log refuses further work.
			l.failed = true
		}
		l.cond.Broadcast()
		if err != nil {
			return err
		}
	}
	return nil
}

// Sync makes every appended record durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	lsn := l.lsn
	l.mu.Unlock()
	return l.Commit(lsn)
}

// Snapshot compacts the log: records becomes the new epoch's seed (it
// must describe the full live state — every outstanding timer and
// lease), the segment rotates, and older epochs are deleted. The caller
// must guarantee that records reflects every Append issued before the
// call and that no Append runs concurrently (twd serializes both under
// its state lock). On success the seed and the empty segment are
// durable and the old epoch's files are removed best-effort. On error
// the old epoch stays authoritative — a seed that already renamed into
// place is removed again — except when that rollback itself fails, in
// which case the log transitions to failed (ErrFailed thereafter) so no
// further appends can land where recovery would not look. Buffered
// frames are flushed to the old segment first; a failed flush fails the
// log before any seed is written.
func (l *Log) Snapshot(records []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed {
		return ErrFailed
	}
	for l.syncing {
		l.cond.Wait() // never rotate under an in-flight fsync
	}
	// Every appended record reaches the old segment before the seed is
	// written, so a snapshot that rolls back loses none of them.
	if err := l.flushLocked(); err != nil {
		return err
	}
	newEpoch := l.epoch + 1

	// Seed file: write-all, fsync, atomic rename. A failure before the
	// rename leaves the old epoch intact and authoritative; the tmp file
	// is swept best-effort.
	snap := snapPath(l.dir, newEpoch)
	tmp := snap + ".tmp"
	sf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 64<<10)
	for _, rec := range records {
		buf = appendFrame(buf, rec)
		if len(buf) >= 60<<10 {
			if _, err := sf.Write(buf); err != nil {
				sf.Close()
				os.Remove(tmp)
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := sf.Write(buf); err != nil {
			sf.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := sf.Sync(); err != nil {
		sf.Close()
		os.Remove(tmp)
		return err
	}
	if err := sf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, snap); err != nil {
		os.Remove(tmp)
		return err
	}

	// The rename is the commit point: recovery now prefers newEpoch's
	// seed. A failure past here must NOT leave the in-memory log
	// appending to the old epoch — those records would be invisible to
	// recovery — so any error rolls the rename back; if even that fails,
	// the log is dead.
	rollback := func(cause error) error {
		os.Remove(walPath(l.dir, newEpoch))
		if rerr := os.Remove(snap); rerr != nil {
			l.failed = true
			l.cond.Broadcast()
			return fmt.Errorf("wal: snapshot failed (%w) and rollback failed (%v): log failed", cause, rerr)
		}
		syncDir(l.dir)
		return cause
	}

	// Fresh segment for the new epoch, then the directory entries.
	nf, err := os.OpenFile(walPath(l.dir, newEpoch), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return rollback(err)
	}
	if err := syncDir(l.dir); err != nil {
		nf.Close()
		return rollback(err)
	}

	old := l.f
	oldEpoch := l.epoch
	l.f = nf
	l.epoch = newEpoch
	l.size = 0
	l.durableSize = 0
	l.segBase = l.lsn
	// Every record up to lsn is represented by the durable seed: the
	// old segment is obsolete, so nothing remains to fsync.
	l.durable = l.lsn
	l.disarmIntervalLocked()
	l.snapshots.Add(1)
	old.Close()
	for e := oldEpoch; ; e-- {
		removedAny := false
		if os.Remove(walPath(l.dir, e)) == nil {
			removedAny = true
		}
		if e > 0 && os.Remove(snapPath(l.dir, e)) == nil {
			removedAny = true
		}
		if e == 0 || !removedAny {
			break
		}
	}
	return nil
}

// Close flushes, syncs and closes the log. It does not write a seal
// record — that is the caller's shutdown protocol (append OpSeal, Sync,
// Close). A failed log still closes its file descriptor: there is
// nothing left to flush that could be trusted anyway.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil && err != ErrClosed && err != ErrFailed {
		return err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.disarmIntervalLocked()
	f := l.f
	l.cond.Broadcast()
	l.mu.Unlock()
	return f.Close()
}

// Stats returns the log's counter snapshot.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	s := Stats{
		Epoch:        l.epoch,
		LSN:          l.lsn,
		Durable:      l.durable,
		SegmentBytes: l.size,
		DurableBytes: l.durableSize,
		SegBaseLSN:   l.segBase,
		Failed:       l.failed,
	}
	l.mu.Unlock()
	s.Appends = l.appends.Load()
	s.Syncs = l.syncs.Load()
	s.Snapshots = l.snapshots.Load()
	return s
}

// SegmentBytes reports the active segment's size, the quantity twd's
// auto-compaction thresholds on.
func (l *Log) SegmentBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// walPath and snapPath name epoch files. Eight hex digits sort
// lexically in epoch order for any realistic epoch count.
func walPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", epoch))
}

func snapPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", epoch))
}

// activeEpoch picks the epoch to recover: the highest epoch that has a
// segment or snapshot file; 0 for an empty directory.
func activeEpoch(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var epochs []uint64
	for _, e := range ents {
		name := e.Name()
		var hex string
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			hex = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			hex = strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
		default:
			continue
		}
		if v, err := strconv.ParseUint(hex, 16, 64); err == nil {
			epochs = append(epochs, v)
		}
	}
	if len(epochs) == 0 {
		return 0, nil
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs[len(epochs)-1], nil
}

// applyFrames applies the valid frame prefix of one framed file to st,
// returning the number of frames applied, the prefix's byte length, and
// whether trailing bytes had to be discarded (a torn or corrupt tail).
func applyFrames(data []byte, st *State) (n uint64, validLen int64, torn bool) {
	off := 0
	for off < len(data) {
		rec, size, ok := decodeFrame(data[off:])
		if !ok {
			return n, int64(off), true
		}
		st.Apply(rec)
		n++
		off += size
	}
	return n, int64(off), false
}

// countOp counts the frames of op in data by following the length
// prefixes, without checksumming: a sizing hint, exact for an intact
// file and stopping at the first insane length.
func countOp(data []byte, op Op) int {
	n := 0
	for len(data) >= frameHeaderSize+recordHeaderSize {
		bodyLen := int(binary.LittleEndian.Uint32(data))
		if bodyLen < recordHeaderSize || bodyLen > len(data)-frameHeaderSize {
			break
		}
		if Op(data[frameHeaderSize]) == op {
			n++
		}
		data = data[frameHeaderSize+bodyLen:]
	}
	return n
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best-effort on filesystems that refuse directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}
