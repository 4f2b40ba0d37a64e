// Crash-injection harness: replays a deterministic op history, then
// simulates a crash at every byte offset of the on-disk log (torn tail,
// truncated CRC, flipped bits, duplicated frames after an appender
// retry) and asserts that recovery reconstructs exactly the state an
// independently-implemented oracle derives from the surviving frames.
package wal

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
)

// oracle is a from-scratch reimplementation of replay semantics, kept
// deliberately different in structure from State.Apply so a shared bug
// cannot hide: it stores whole records and derives counters with
// if-chains rather than a switch over map mutations.
type oracle struct {
	timers  map[uint64]Record
	leases  map[uint64]int64
	sched   uint64
	fired   uint64
	cancel  uint64
	granted uint64
	expired uint64
	sealed  bool
}

func newOracle() *oracle {
	return &oracle{timers: map[uint64]Record{}, leases: map[uint64]int64{}}
}

func (o *oracle) apply(r Record) {
	o.sealed = r.Op == OpSeal
	if r.Op == OpSchedule {
		if _, ok := o.timers[r.ID]; !ok {
			o.sched++
		}
		o.timers[r.ID] = r
	}
	if r.Op == OpCancel {
		if _, ok := o.timers[r.ID]; ok {
			o.cancel++
			delete(o.timers, r.ID)
		}
	}
	if r.Op == OpFire {
		if _, ok := o.timers[r.ID]; ok {
			o.fired++
			delete(o.timers, r.ID)
		}
	}
	if r.Op == OpReset {
		if prev, ok := o.timers[r.ID]; ok {
			prev.Deadline = r.Deadline
			o.timers[r.ID] = prev
		}
	}
	if r.Op == OpLeaseGrant {
		if _, ok := o.leases[r.ID]; !ok {
			o.granted++
		}
		o.leases[r.ID] = r.Deadline
	}
	if r.Op == OpLeaseRenew {
		if _, ok := o.leases[r.ID]; ok {
			o.leases[r.ID] = r.Deadline
		}
	}
	if r.Op == OpLeaseExpire {
		if _, ok := o.leases[r.ID]; ok {
			o.expired++
			delete(o.leases, r.ID)
		}
	}
}

// diff compares the oracle against a recovered State, returning a
// human-readable mismatch or "".
func (o *oracle) diff(s *State) string {
	if len(s.Timers) != len(o.timers) {
		return "outstanding timer count"
	}
	payloads := 0
	for id, want := range o.timers {
		got, ok := s.Timers[id]
		if !ok {
			return "missing timer"
		}
		if got.Deadline != want.Deadline || got.Class != want.Class ||
			got.Lease != want.Lease || !bytes.Equal(s.Payloads[id], want.Payload) {
			return "timer fields"
		}
		if len(want.Payload) > 0 {
			payloads++
		}
	}
	if len(s.Payloads) != payloads {
		return "payload count"
	}
	if len(s.Leases) != len(o.leases) {
		return "live lease count"
	}
	for id, expiry := range o.leases {
		if got, ok := s.Leases[id]; !ok || got.Expiry != expiry {
			return "lease expiry"
		}
	}
	if s.Scheduled != o.sched || s.Fired != o.fired || s.Cancelled != o.cancel {
		return "timer counters"
	}
	if s.LeasesGranted != o.granted || s.LeasesExpired != o.expired {
		return "lease counters"
	}
	if s.Sealed != o.sealed {
		return "sealed flag"
	}
	if s.Scheduled != s.Fired+s.Cancelled+uint64(len(s.Timers)) {
		return "conservation ledger"
	}
	return ""
}

// genHistory builds a deterministic mixed op program. IDs are drawn
// from a small range so cancels, resets, and fires hit live timers
// often and settled ones sometimes (exercising idempotent replay).
func genHistory(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		id := uint64(rng.Intn(16) + 1)
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			var payload []byte
			if k := rng.Intn(24); k > 0 {
				payload = make([]byte, k)
				rng.Read(payload)
			}
			recs = append(recs, Record{
				Op: OpSchedule, ID: id, Class: uint8(rng.Intn(3)),
				Lease: uint64(rng.Intn(4)), Deadline: rng.Int63n(1 << 40),
				Payload: payload,
			})
		case 4:
			recs = append(recs, Record{Op: OpCancel, ID: id})
		case 5:
			recs = append(recs, Record{Op: OpReset, ID: id, Deadline: rng.Int63n(1 << 40)})
		case 6:
			recs = append(recs, Record{Op: OpFire, ID: id})
		case 7:
			recs = append(recs, Record{Op: OpLeaseGrant, ID: uint64(rng.Intn(4) + 1), Deadline: rng.Int63n(1 << 40)})
		case 8:
			recs = append(recs, Record{Op: OpLeaseRenew, ID: uint64(rng.Intn(4) + 1), Deadline: rng.Int63n(1 << 40)})
		case 9:
			recs = append(recs, Record{Op: OpLeaseExpire, ID: uint64(rng.Intn(4) + 1)})
		}
	}
	return recs
}

// writeHistory encodes recs and returns the raw segment bytes plus the
// byte offset at which each frame ends (boundaries[i] = end of frame i).
func writeHistory(recs []Record) (data []byte, boundaries []int) {
	for _, r := range recs {
		data = appendFrame(data, r)
		boundaries = append(boundaries, len(data))
	}
	return data, boundaries
}

// recoverBytes plants data as an epoch-0 segment in a fresh dir and
// runs Open, returning the result with the log left open.
func recoverBytes(t *testing.T, data []byte, opt Options) (*Log, *RecoverResult) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(walPath(dir, 0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return mustOpen(t, dir, opt)
}

// TestCrashAtEveryByteOffset is the core harness: for every possible
// crash point in the segment — every byte prefix — recovery must
// reconstruct exactly the oracle's view of the complete frames inside
// the prefix, report torn-tail status correctly, and leave the log
// appendable.
func TestCrashAtEveryByteOffset(t *testing.T) {
	recs := genHistory(6, 120)
	data, boundaries := writeHistory(recs)

	// frameAt[L] = number of complete frames within a prefix of L bytes.
	frameAt := make([]int, len(data)+1)
	{
		next, done := 0, 0
		for l := 0; l <= len(data); l++ {
			for next < len(boundaries) && boundaries[next] <= l {
				done++
				next++
			}
			frameAt[l] = done
		}
	}

	for cut := 0; cut <= len(data); cut++ {
		complete := frameAt[cut]
		o := newOracle()
		for _, r := range recs[:complete] {
			o.apply(r)
		}
		l, res := recoverBytes(t, data[:cut], Options{})
		if msg := o.diff(res.State); msg != "" {
			t.Fatalf("cut=%d (%d frames): recovered state differs from oracle: %s", cut, complete, msg)
		}
		atBoundary := cut == 0 || (complete > 0 && boundaries[complete-1] == cut)
		if res.Torn == atBoundary {
			t.Fatalf("cut=%d: Torn=%v, at frame boundary=%v", cut, res.Torn, atBoundary)
		}
		if res.LogRecords != uint64(complete) {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, res.LogRecords, complete)
		}
		// The truncated log must accept appends at a valid boundary.
		if _, err := l.Append(Record{Op: OpSchedule, ID: 999, Deadline: 1}); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
	}
}

// TestCrashBitFlipInLastFrame corrupts every byte of the final frame
// (one bit flip each) and asserts the reader drops exactly that frame:
// the recovered state equals the oracle over all prior records.
func TestCrashBitFlipInLastFrame(t *testing.T) {
	recs := genHistory(7, 40)
	data, boundaries := writeHistory(recs)
	lastStart := 0
	if len(boundaries) > 1 {
		lastStart = boundaries[len(boundaries)-2]
	}
	o := newOracle()
	for _, r := range recs[:len(recs)-1] {
		o.apply(r)
	}
	for pos := lastStart; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 1 << uint(pos%8)
		_, res := recoverBytes(t, mut, Options{})
		if !res.Torn {
			t.Fatalf("bit flip at %d not detected as torn", pos)
		}
		if msg := o.diff(res.State); msg != "" {
			t.Fatalf("bit flip at %d: recovered state differs from oracle: %s", pos, msg)
		}
	}
}

// TestCrashRetryDuplicatesFrame models an appender that crashed with a
// half-written frame and, after restart, re-appended the same record:
// recovery truncates the torn half, the retry lands cleanly, and the
// final state is byte-for-byte the clean history's state.
func TestCrashRetryDuplicatesFrame(t *testing.T) {
	recs := genHistory(8, 60)
	data, boundaries := writeHistory(recs)
	last := recs[len(recs)-1]
	lastStart := boundaries[len(boundaries)-2]

	// Crash points inside the last frame, inclusive of "wrote nothing"
	// and exclusive of "wrote everything" (no retry needed there).
	for _, cut := range []int{lastStart, lastStart + 3, lastStart + frameHeaderSize, len(data) - 1} {
		l, res := recoverBytes(t, data[:cut], Options{})
		if res.LogRecords != uint64(len(recs)-1) {
			t.Fatalf("cut=%d: replayed %d, want %d", cut, res.LogRecords, len(recs)-1)
		}
		if _, err := l.Append(last); err != nil {
			t.Fatalf("cut=%d: retry append: %v", cut, err)
		}
		dir := l.dir
		l.Close()

		_, res2 := mustOpen(t, dir, Options{})
		o := newOracle()
		for _, r := range recs {
			o.apply(r)
		}
		if msg := o.diff(res2.State); msg != "" {
			t.Fatalf("cut=%d: retried history differs from clean history: %s", cut, msg)
		}
	}

	// A retry that duplicates an already-complete frame (the ambiguous
	// "did my write land?" case) must be absorbed by idempotent replay.
	dup := append(append([]byte(nil), data...), data[lastStart:]...)
	_, res := recoverBytes(t, dup, Options{})
	o := newOracle()
	for _, r := range recs {
		o.apply(r)
	}
	o.apply(last) // oracle is itself idempotent; applying twice is the point
	if msg := o.diff(res.State); msg != "" {
		t.Fatalf("duplicated frame: recovered state differs from oracle: %s", msg)
	}
	if res.LogRecords != uint64(len(recs)+1) {
		t.Fatalf("duplicated frame: replayed %d, want %d", res.LogRecords, len(recs)+1)
	}
}

// TestCrashTornSnapshotFallsBack: a snapshot seed with a torn tail
// still recovers its valid prefix, and the epoch's segment replays on
// top of it.
func TestCrashTornSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	seed := []Record{
		{Op: OpSchedule, ID: 1, Deadline: 100},
		{Op: OpSchedule, ID: 2, Deadline: 200},
	}
	var snap []byte
	for _, r := range seed {
		snap = appendFrame(snap, r)
	}
	// Tear the snapshot's second frame.
	if err := os.WriteFile(snapPath(dir, 3), snap[:len(snap)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	seg = appendFrame(seg, Record{Op: OpSchedule, ID: 9, Deadline: 900})
	if err := os.WriteFile(walPath(dir, 3), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	l, res := mustOpen(t, dir, Options{})
	defer l.Close()
	if !res.Torn {
		t.Fatal("torn snapshot not reported")
	}
	if res.Epoch != 3 || res.SnapshotRecords != 1 || res.LogRecords != 1 {
		t.Fatalf("recovery: %+v", res)
	}
	if res.State.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2 (timer 1 from seed, timer 9 from segment)", res.State.Outstanding())
	}
}
