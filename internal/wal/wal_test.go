package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// mustOpen opens a log in dir, failing the test on error.
func mustOpen(t *testing.T, dir string, opt Options) (*Log, *RecoverResult) {
	t.Helper()
	l, res, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, res
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, res := mustOpen(t, dir, Options{})
	if res.LogRecords != 0 || res.Torn || res.State.Outstanding() != 0 {
		t.Fatalf("fresh dir recovered non-empty: %+v", res)
	}

	recs := []Record{
		{Op: OpSchedule, ID: 1, Class: 2, Deadline: 1000, Payload: []byte("a")},
		{Op: OpSchedule, ID: 2, Deadline: 2000},
		{Op: OpSchedule, ID: 3, Lease: 7, Deadline: 3000, Payload: []byte("ccc")},
		{Op: OpLeaseGrant, ID: 7, Deadline: 9000},
		{Op: OpCancel, ID: 2},
		{Op: OpReset, ID: 3, Deadline: 3500},
		{Op: OpFire, ID: 1},
		{Op: OpLeaseRenew, ID: 7, Deadline: 9500},
	}
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("Append(%v): %v", r.Op, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, res2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	st := res2.State
	if res2.Torn {
		t.Fatal("clean log recovered as torn")
	}
	if res2.LogRecords != uint64(len(recs)) {
		t.Fatalf("LogRecords = %d, want %d", res2.LogRecords, len(recs))
	}
	if st.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", st.Outstanding())
	}
	tm, ok := st.Timers[3]
	if !ok || tm.Deadline != 3500 || tm.Lease != 7 || string(st.Payloads[3]) != "ccc" {
		t.Fatalf("timer 3 = %+v, ok=%v", tm, ok)
	}
	ls, ok := st.Leases[7]
	if !ok || ls.Expiry != 9500 {
		t.Fatalf("lease 7 = %+v, ok=%v", ls, ok)
	}
	if st.Scheduled != 3 || st.Fired != 1 || st.Cancelled != 1 {
		t.Fatalf("ledger scheduled=%d fired=%d cancelled=%d", st.Scheduled, st.Fired, st.Cancelled)
	}
	if st.Scheduled != st.Fired+st.Cancelled+uint64(st.Outstanding()) {
		t.Fatal("conservation ledger does not close")
	}
}

func TestSealMarksCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if _, err := l.Append(Record{Op: OpSchedule, ID: 1, Deadline: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Op: OpSeal}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, res := mustOpen(t, dir, Options{})
	if !res.State.Sealed {
		t.Fatal("sealed log not recovered as Sealed")
	}
	// Any activity after recovery voids the seal.
	if _, err := l2.Append(Record{Op: OpCancel, ID: 1}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, res = mustOpen(t, dir, Options{})
	if res.State.Sealed {
		t.Fatal("seal survived a later record")
	}
}

func TestTornTailTruncatedAndAppendable(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := uint64(1); i <= 5; i++ {
		if _, err := l.Append(Record{Op: OpSchedule, ID: i, Deadline: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the tail: drop half of the last frame.
	path := walPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := frameSize(Record{Op: OpSchedule, ID: 1, Deadline: 1})
	torn := data[:len(data)-frame/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, res := mustOpen(t, dir, Options{})
	if !res.Torn || res.TornBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", res)
	}
	if res.LogRecords != 4 || res.State.Outstanding() != 4 {
		t.Fatalf("recovered %d records, %d outstanding; want 4, 4",
			res.LogRecords, res.State.Outstanding())
	}
	// The file must be appendable at a valid boundary after truncation.
	if _, err := l2.Append(Record{Op: OpSchedule, ID: 99, Deadline: 99}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, res = mustOpen(t, dir, Options{})
	if res.Torn || res.State.Outstanding() != 5 {
		t.Fatalf("post-tear append lost: %+v", res)
	}
	if _, ok := res.State.Timers[99]; !ok {
		t.Fatal("appended record missing after reopen")
	}
}

func TestSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := uint64(1); i <= 100; i++ {
		if _, err := l.Append(Record{Op: OpSchedule, ID: i, Deadline: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 90; i++ {
		if _, err := l.Append(Record{Op: OpFire, ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Seed = the ten live timers.
	var seed []Record
	for i := uint64(91); i <= 100; i++ {
		seed = append(seed, Record{Op: OpSchedule, ID: i, Deadline: int64(i)})
	}
	if err := l.Snapshot(seed); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if st := l.Stats(); st.Epoch != 1 || st.Durable != st.LSN {
		t.Fatalf("post-snapshot stats: %+v", st)
	}
	// Old epoch files are gone.
	if _, err := os.Stat(walPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("old segment survives: %v", err)
	}
	// Post-snapshot appends land in the new segment.
	if _, err := l.Append(Record{Op: OpCancel, ID: 100}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, res := mustOpen(t, dir, Options{})
	if res.Epoch != 1 || res.SnapshotRecords != 10 || res.LogRecords != 1 {
		t.Fatalf("recovery after snapshot: %+v", res)
	}
	if res.State.Outstanding() != 9 {
		t.Fatalf("outstanding = %d, want 9", res.State.Outstanding())
	}
	if _, ok := res.State.Timers[100]; ok {
		t.Fatal("cancelled timer 100 still outstanding")
	}
}

func TestOpenSweepsStaleEpochs(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if _, err := l.Append(Record{Op: OpSchedule, ID: 1, Deadline: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]Record{{Op: OpSchedule, ID: 1, Deadline: 5}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate a crash that left the pre-snapshot epoch behind.
	if err := os.WriteFile(walPath(dir, 0), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, res := mustOpen(t, dir, Options{})
	defer l2.Close()
	if res.Epoch != 1 || res.State.Outstanding() != 1 {
		t.Fatalf("recovery picked wrong epoch: %+v", res)
	}
	if _, err := os.Stat(walPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatal("stale epoch-0 segment not swept")
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := uint64(g*each + i + 1)
				lsn, err := l.Append(Record{Op: OpSchedule, ID: id, Deadline: int64(id)})
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if err := l.Commit(lsn); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := l.Stats()
	if st.Durable != st.LSN || st.LSN != goroutines*each {
		t.Fatalf("stats after concurrent commits: %+v", st)
	}
	l.Close()
	_, res := mustOpen(t, dir, Options{})
	if res.State.Outstanding() != goroutines*each {
		t.Fatalf("outstanding = %d, want %d", res.State.Outstanding(), goroutines*each)
	}
}

func TestSyncEveryPolicy(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncEvery: 4})
	for i := uint64(1); i <= 10; i++ {
		if _, err := l.Append(Record{Op: OpSchedule, ID: i, Deadline: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Durable < 8 {
		t.Fatalf("SyncEvery=4 left durable=%d after 10 appends", st.Durable)
	}
	if st.Syncs == 0 || st.Syncs > 4 {
		t.Fatalf("syncs = %d, want 1..4 (count-triggered batching)", st.Syncs)
	}
	l.Close()
}

func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncInterval: 5 * time.Millisecond})
	if _, err := l.Append(Record{Op: OpSchedule, ID: 1, Deadline: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Durable < 1 {
		if time.Now().After(deadline) {
			t.Fatal("SyncInterval never made the record durable")
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
}

func TestAppendValidation(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if _, err := l.Append(Record{Op: 0}); err != ErrBadOp {
		t.Fatalf("zero op: %v", err)
	}
	if _, err := l.Append(Record{Op: opMax + 1}); err != ErrBadOp {
		t.Fatalf("out-of-range op: %v", err)
	}
	big := Record{Op: OpSchedule, ID: 1, Payload: bytes.Repeat([]byte("x"), MaxPayload+1)}
	if _, err := l.Append(big); err != ErrPayloadTooLarge {
		t.Fatalf("oversized payload: %v", err)
	}
	l.Close()
	if _, err := l.Append(Record{Op: OpSchedule, ID: 1}); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestDuplicateRecordsIdempotent(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	sched := Record{Op: OpSchedule, ID: 1, Deadline: 100, Payload: []byte("p")}
	for _, r := range []Record{sched, sched, {Op: OpFire, ID: 1}, {Op: OpFire, ID: 1}} {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	_, res := mustOpen(t, dir, Options{})
	st := res.State
	if st.Scheduled != 1 || st.Fired != 1 || st.Outstanding() != 0 {
		t.Fatalf("duplicates double-counted: scheduled=%d fired=%d outstanding=%d",
			st.Scheduled, st.Fired, st.Outstanding())
	}
}

func TestRecordEncodingRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: OpSchedule, Class: 3, ID: ^uint64(0), Lease: 42, Deadline: -1, Payload: []byte{0, 1, 2}},
		{Op: OpSeal},
		{Op: OpLeaseExpire, ID: 1},
	}
	var b []byte
	for _, r := range recs {
		b = appendFrame(b, r)
	}
	off := 0
	for i, want := range recs {
		got, n, ok := decodeFrame(b[off:])
		if !ok {
			t.Fatalf("frame %d failed to decode", i)
		}
		if got.Op != want.Op || got.Class != want.Class || got.ID != want.ID ||
			got.Lease != want.Lease || got.Deadline != want.Deadline ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(b) {
		t.Fatalf("decoded %d of %d bytes", off, len(b))
	}
}

func TestSnapshotDirLayout(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	l.Snapshot(nil)
	l.Snapshot(nil)
	l.Close()
	ents, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{walPath(dir, 2): true, snapPath(dir, 2): true}
	for _, e := range ents {
		if !want[e] {
			t.Fatalf("unexpected file after double snapshot: %s (all: %v)", e, ents)
		}
		delete(want, e)
	}
	if len(want) != 0 {
		t.Fatalf("missing files: %v", want)
	}
}
