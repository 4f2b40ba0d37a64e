package timer

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// checkConservation asserts the quiescent ledger: every admission is
// accounted as delivered, stopped, outstanding, or abandoned.
func checkConservation(t *testing.T, rt *Runtime) {
	t.Helper()
	started, expired, stopped := rt.Stats()
	h := rt.Health()
	out := uint64(rt.Outstanding())
	if started != expired+stopped+out+h.AbandonedOnClose {
		t.Fatalf("ledger: started=%d != expired=%d + stopped=%d + outstanding=%d + abandoned=%d",
			started, expired, stopped, out, h.AbandonedOnClose)
	}
}

func TestScheduleBatchSync(t *testing.T) {
	rt, fc := newManualRuntime(t)
	fired := 0
	reqs := make([]Req, 10)
	for i := range reqs {
		reqs[i] = Req{After: time.Duration(i+1) * 10 * time.Millisecond, Fn: func() { fired++ }}
	}
	reqs[3].Fn = nil // voided entry
	timers, err := rt.ScheduleBatch(reqs)
	if err != ErrNilCallback {
		t.Fatalf("ScheduleBatch err=%v, want ErrNilCallback", err)
	}
	if len(timers) != len(reqs) || timers[3] != nil {
		t.Fatalf("timers len=%d, slot3=%v; want parallel slice with nil slot 3", len(timers), timers[3])
	}
	// Stop the last 4 in one batch.
	if got := rt.StopBatch(timers[6:]); got != 4 {
		t.Fatalf("StopBatch=%d, want 4", got)
	}
	fc.Advance(200 * time.Millisecond)
	rt.Poll()
	if fired != 5 { // 9 valid - 4 stopped
		t.Fatalf("fired=%d, want 5", fired)
	}
	started, _, stopped := rt.Stats()
	if started != 9 || stopped != 4 {
		t.Fatalf("started=%d stopped=%d, want 9/4", started, stopped)
	}
	checkConservation(t, rt)
}

// TestScheduleBatchShardedExact runs the exact batch counts through
// Sharded: a ScheduleBatch lands on one shard, and StopBatch and
// ResetBatch over a batch mixing two shards' timers count every timer
// exactly once.
func TestScheduleBatchShardedExact(t *testing.T) {
	fc := newFakeClock()
	s := NewSharded(2, WithManualDriver(), WithNowFunc(fc.Now), WithGranularity(10*time.Millisecond))
	t.Cleanup(func() { s.Close() })
	var fired atomic.Int64
	batch := func() []*Timer {
		reqs := make([]Req, 8)
		for i := range reqs {
			reqs[i] = Req{After: 50 * time.Millisecond, Fn: func() { fired.Add(1) }}
		}
		ts, err := s.ScheduleBatch(reqs)
		if err != nil {
			t.Fatalf("ScheduleBatch: %v", err)
		}
		return ts
	}
	a, b := batch(), batch()
	if a[0].rt == b[0].rt {
		t.Fatal("two batches landed on one shard; want round-robin")
	}
	mixed := append(append([]*Timer{}, a[:4]...), b[:4]...)
	if got := s.StopBatch(mixed); got != 8 {
		t.Fatalf("StopBatch over two shards=%d, want 8", got)
	}
	rq := []ResetReq{{T: a[4], After: 200 * time.Millisecond}, {T: b[4], After: 200 * time.Millisecond}, {T: a[5], After: 200 * time.Millisecond}}
	if got, err := s.ResetBatch(rq); got != 3 || err != nil {
		t.Fatalf("ResetBatch over two shards=(%d, %v), want (3, nil)", got, err)
	}
	fc.Advance(50 * time.Millisecond)
	for _, rt := range []*Runtime{a[0].rt, b[0].rt} {
		rt.Poll()
	}
	if fired.Load() != 5 {
		t.Fatalf("fired=%d after 50ms, want 5 (16 - 8 stopped - 3 reset)", fired.Load())
	}
	started, expired, stopped := s.Stats()
	if started != 16 || expired != 5 || stopped != 8 || s.Outstanding() != 3 {
		t.Fatalf("started=%d expired=%d stopped=%d outstanding=%d, want 16/5/8/3",
			started, expired, stopped, s.Outstanding())
	}
}

// TestTimerSize pins the runtime's per-timer record: the embedded
// scheme entry plus four words.
func TestTimerSize(t *testing.T) {
	if got := unsafe.Sizeof(Timer{}); got > 112 {
		t.Fatalf("unsafe.Sizeof(Timer{}) = %d B, want <= 112", got)
	}
}

// TestSlabAllocation checks that Timers are carved slabSize at a time:
// a batch of slabSize timers on a fresh runtime costs one slab, and
// recycled Timers are reused before any new slab is cut.
func TestSlabAllocation(t *testing.T) {
	rt, _ := newManualRuntime(t)
	reqs := make([]Req, slabSize)
	for i := range reqs {
		reqs[i] = Req{After: time.Second, Fn: func() {}}
	}
	var timers []*Timer
	schedule := func() {
		var err error
		if timers, err = rt.ScheduleBatch(reqs); err != nil {
			t.Fatal(err)
		}
	}
	schedule() // the first slab also grows the free list
	if got := minMallocs(schedule); got != 2 {
		t.Fatalf("ScheduleBatch of %d timers, free list empty: %d allocs, want 2 (one slab, the result slice)", slabSize, got)
	}
	reuse := func() {
		if got := rt.StopBatch(timers); got != slabSize {
			t.Fatalf("StopBatch=%d, want %d", got, slabSize)
		}
		schedule()
	}
	if got := minMallocs(reuse); got != 1 {
		t.Fatalf("ScheduleBatch reusing recycled timers: %d allocs, want 1 (the result slice)", got)
	}
}

// mallocs counts the heap allocations f makes, as testing.AllocsPerRun
// does (on one P), but over a single call and without a warm-up run.
// Other goroutines' allocations can only add to the count, so callers
// that may see some take the least of a few calls.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// minMallocs is the least of mallocs(f) over three calls.
func minMallocs(f func()) uint64 {
	least := mallocs(f)
	for i := 0; i < 2; i++ {
		least = min(least, mallocs(f))
	}
	return least
}
