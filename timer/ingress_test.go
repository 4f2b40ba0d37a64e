package timer

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// WithIngress once routed admissions through a lock-free staging ring
// that the next poll applied. It is a documented no-op now, kept so
// callers built against it (svcbench's replay among them) still
// compile. The tests below build runtimes with it and pin that such a
// runtime behaves as the locked path does: every admission is armed by
// the call itself, not by the next poll.

// newIngressRuntime is newManualRuntime with the WithIngress option set.
func newIngressRuntime(t *testing.T, opts ...RuntimeOption) (*Runtime, *fakeClock) {
	t.Helper()
	return newManualRuntime(t, append([]RuntimeOption{WithIngress(0)}, opts...)...)
}

func TestIngressScheduleFires(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	fired := make(chan struct{}, 1)
	if _, err := rt.AfterFunc(50*time.Millisecond, func() { close(fired) }); err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	// Armed by the call, before any poll.
	if got := rt.Outstanding(); got != 1 {
		t.Fatalf("Outstanding before poll = %d, want 1", got)
	}
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	select {
	case <-fired:
		t.Fatal("fired before its deadline")
	default:
	}
	if got := rt.Outstanding(); got != 1 {
		t.Fatalf("Outstanding after a poll short of the deadline = %d, want 1", got)
	}
	fc.Advance(10 * time.Millisecond)
	if n := rt.Poll(); n != 1 {
		t.Fatalf("Poll fired %d, want 1", n)
	}
	<-fired
	checkConservation(t, rt)
}

// TestIngressFirstPollAtDeadline: the first poll after the admission is
// the one whose advance crosses the deadline, and the timer must fire
// in it, not a tick late.
func TestIngressFirstPollAtDeadline(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	fired := false
	if _, err := rt.AfterFunc(30*time.Millisecond, func() { fired = true }); err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	fc.Advance(30 * time.Millisecond)
	if n := rt.Poll(); n != 1 || !fired {
		t.Fatalf("Poll fired %d (fired=%v), want 1 at the deadline poll", n, fired)
	}
}

// TestIngressStopBeforeApplyNeverTouchesWheel stops a timer before any
// poll. Nothing is staged, so the stop unlinks the armed entry at once:
// the count drops before the poll, and the poll finds nothing to fire.
func TestIngressStopBeforeApplyNeverTouchesWheel(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	tm, err := rt.AfterFunc(50*time.Millisecond, func() { t.Error("cancelled timer fired") })
	if err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	if !tm.Stop() {
		t.Fatal("Stop before the first poll refused")
	}
	if got := rt.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after Stop = %d, want 0", got)
	}
	rt.Poll()
	started, _, stopped := rt.Stats()
	if started != 1 || stopped != 1 {
		t.Fatalf("started=%d stopped=%d, want 1/1", started, stopped)
	}
	fc.Advance(100 * time.Millisecond)
	if n := rt.Poll(); n != 0 {
		t.Fatalf("Poll fired %d, want 0", n)
	}
	checkConservation(t, rt)
}

func TestIngressStopArmed(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	tm, _ := rt.AfterFunc(50*time.Millisecond, func() { t.Error("cancelled timer fired") })
	rt.Poll()
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer refused")
	}
	fc.Advance(100 * time.Millisecond)
	rt.Poll()
	if got := rt.Outstanding(); got != 0 {
		t.Fatalf("Outstanding=%d, want 0", got)
	}
	checkConservation(t, rt)
}

func TestIngressDoubleStop(t *testing.T) {
	rt, _ := newIngressRuntime(t)
	tm, _ := rt.AfterFunc(time.Second, func() {})
	if !tm.Stop() {
		t.Fatal("first Stop refused")
	}
	if tm.Stop() {
		t.Fatal("second Stop accepted")
	}
}

func TestIngressResetExtendsDeadline(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	var firedAt time.Duration
	elapsed := time.Duration(0)
	tm, _ := rt.AfterFunc(50*time.Millisecond, func() { firedAt = elapsed })
	rt.Poll()
	fc.Advance(30 * time.Millisecond)
	elapsed = 30 * time.Millisecond
	rt.Poll()
	if wasPending, err := tm.Reset(50 * time.Millisecond); err != nil || !wasPending {
		t.Fatalf("Reset = (%v, %v), want (true, nil)", wasPending, err)
	}
	for i := 0; i < 10; i++ {
		fc.Advance(10 * time.Millisecond)
		elapsed += 10 * time.Millisecond
		rt.Poll()
		if firedAt != 0 {
			break
		}
	}
	if firedAt != 80*time.Millisecond {
		t.Fatalf("fired at %v, want 80ms (30ms + reset 50ms)", firedAt)
	}
	checkConservation(t, rt)
}

// TestIngressResetStagedTimer resets a timer before any poll, with a
// second timer admitted after it: the reset must move the one armed
// entry, not arm a second one.
func TestIngressResetStagedTimer(t *testing.T) {
	rt, fc := newIngressRuntime(t, WithIngress(2))
	fires := 0
	tm, _ := rt.AfterFunc(30*time.Millisecond, func() { fires++ })
	if _, err := rt.AfterFunc(500*time.Millisecond, func() {}); err != nil {
		t.Fatalf("filler: %v", err)
	}
	if wasPending, err := tm.Reset(60 * time.Millisecond); err != nil || !wasPending {
		t.Fatalf("Reset before the first poll = (%v, %v), want (true, nil)", wasPending, err)
	}
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	if fires != 0 {
		t.Fatalf("fired %d times before the reset deadline", fires)
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	if fires != 1 {
		t.Fatalf("fired %d times, want exactly 1 (no double-arm)", fires)
	}
	fc.Advance(time.Second)
	rt.Poll()
	if fires != 1 {
		t.Fatalf("fired %d times after drain, want 1", fires)
	}
	checkConservation(t, rt)
}

func TestIngressAfterChannel(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	ch, err := rt.After(20 * time.Millisecond)
	if err != nil {
		t.Fatalf("After: %v", err)
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	select {
	case <-ch:
	default:
		t.Fatal("After channel empty at deadline")
	}
	checkConservation(t, rt)
}

// TestIngressRingFullFallsBackToLock admits ten times the depth the
// option names: the depth bounds nothing, and every admission is armed.
func TestIngressRingFullFallsBackToLock(t *testing.T) {
	rt, fc := newIngressRuntime(t, WithIngress(2))
	fired := 0
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := rt.AfterFunc(30*time.Millisecond, func() { fired++ }); err != nil {
			t.Fatalf("AfterFunc %d: %v", i, err)
		}
	}
	if got := rt.Outstanding(); got != n {
		t.Fatalf("Outstanding=%d, want %d", got, n)
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	if fired != n {
		t.Fatalf("fired=%d, want %d", fired, n)
	}
	checkConservation(t, rt)
}

// TestScheduleBatchIngress schedules a batch, stops half of it in one
// StopBatch, and checks every count is exact: StopBatch's result, the
// fires, and the ledger.
func TestScheduleBatchIngress(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	var fired atomic.Int64
	reqs := make([]Req, 64)
	for i := range reqs {
		reqs[i] = Req{After: 30 * time.Millisecond, Fn: func() { fired.Add(1) }, Opt: WithTag(uint64(i + 1))}
	}
	timers, err := rt.ScheduleBatch(reqs)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	if got := rt.StopBatch(timers[:32]); got != 32 {
		t.Fatalf("StopBatch=%d, want 32", got)
	}
	if got := rt.StopBatch(timers[32:33]); got != 1 {
		t.Fatalf("StopBatch of one armed timer=%d, want 1", got)
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 31 {
		t.Fatalf("fired=%d, want 31", fired.Load())
	}
	if got := rt.StopBatch(timers[40:48]); got != 0 {
		t.Fatalf("StopBatch of fired timers=%d, want 0", got)
	}
	started, _, stopped := rt.Stats()
	if started != 64 || stopped != 33 {
		t.Fatalf("started=%d stopped=%d, want 64/33", started, stopped)
	}
	checkConservation(t, rt)
}

// TestScheduleBatchLargerThanRing schedules a batch larger than both
// the depth the option names and a slab, so its Timers come from
// several fresh slabs and the free list, and checks each is a distinct,
// working timer.
func TestScheduleBatchLargerThanRing(t *testing.T) {
	rt, fc := newIngressRuntime(t, WithIngress(4))
	fired := 0
	reqs := make([]Req, 3*slabSize+5)
	for i := range reqs {
		reqs[i] = Req{After: 10 * time.Millisecond, Fn: func() { fired++ }}
	}
	timers, err := rt.ScheduleBatch(reqs)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	seen := make(map[*Timer]bool, len(timers))
	for _, tm := range timers {
		if tm == nil || seen[tm] {
			t.Fatalf("batch slot holds %p: nil or handed out twice", tm)
		}
		seen[tm] = true
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	if fired != len(reqs) {
		t.Fatalf("fired=%d, want %d", fired, len(reqs))
	}
	checkConservation(t, rt)
}

func TestIngressDrainCancelsStaged(t *testing.T) {
	rt, _ := newIngressRuntime(t)
	var fired atomic.Int64
	reqs := make([]Req, 16)
	for i := range reqs {
		reqs[i] = Req{After: time.Hour, Fn: func() { fired.Add(1) }}
	}
	if _, err := rt.ScheduleBatch(reqs); err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	// No Poll before the drain: the admissions must still reach the policy.
	rep, err := rt.Drain(context.Background(), DrainCancelAll)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.Cancelled != 16 {
		t.Fatalf("Cancelled=%d, want 16", rep.Cancelled)
	}
	if fired.Load() != 0 {
		t.Fatalf("fired=%d, want 0", fired.Load())
	}
	h := rt.Health()
	if h.AbandonedOnClose != 16 {
		t.Fatalf("AbandonedOnClose=%d, want 16", h.AbandonedOnClose)
	}
	checkConservation(t, rt)
}

func TestIngressDrainFireNowFiresStaged(t *testing.T) {
	rt, _ := newIngressRuntime(t)
	var fired atomic.Int64
	for i := 0; i < 8; i++ {
		if _, err := rt.AfterFunc(time.Hour, func() { fired.Add(1) }); err != nil {
			t.Fatalf("AfterFunc: %v", err)
		}
	}
	rep, err := rt.Drain(context.Background(), DrainFireNow)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.Fired != 8 || fired.Load() != 8 {
		t.Fatalf("Fired=%d actual=%d, want 8/8", rep.Fired, fired.Load())
	}
	checkConservation(t, rt)
}

func TestIngressScheduleAfterCloseFails(t *testing.T) {
	rt, _ := newIngressRuntime(t)
	rt.Close()
	if _, err := rt.AfterFunc(time.Second, func() {}); err != ErrRuntimeClosed {
		t.Fatalf("AfterFunc after Close: err=%v, want ErrRuntimeClosed", err)
	}
	if _, err := rt.ScheduleBatch([]Req{{After: time.Second, Fn: func() {}}}); err != ErrRuntimeClosed {
		t.Fatalf("ScheduleBatch after Close: err=%v, want ErrRuntimeClosed", err)
	}
}

func TestIngressEvery(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	fires := 0
	tk, err := rt.Every(20*time.Millisecond, func() { fires++ })
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	for i := 0; i < 6; i++ {
		fc.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	tk.Stop()
	if fires != 3 {
		t.Fatalf("ticker fired %d times in 60ms at 20ms period, want 3", fires)
	}
}

// TestIngressSnapshotHistograms: ten timers due on one tick fire in one
// poll, and the snapshot's histograms and counters record exactly that.
func TestIngressSnapshotHistograms(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	for i := 0; i < 10; i++ {
		if _, err := rt.AfterFunc(10*time.Millisecond, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	s := rt.Snapshot()
	if got := s.TickBatch.Max; got != 10 {
		t.Fatalf("TickBatch.Max=%d, want 10", got)
	}
	if s.FiringLagNS.Count != 10 || s.CallbackNS.Count != 10 {
		t.Fatalf("histograms: lag count=%d callback count=%d, want 10/10",
			s.FiringLagNS.Count, s.CallbackNS.Count)
	}
	if s.Started != 10 || s.Expired != 10 || s.Outstanding != 0 {
		t.Fatalf("started=%d expired=%d outstanding=%d, want 10/10/0", s.Started, s.Expired, s.Outstanding)
	}
}

// TestIngressSingleOpAllocFree keeps the single-timer path
// allocation-free once warm (the batch APIs allocate their result
// slices by design).
func TestIngressSingleOpAllocFree(t *testing.T) {
	rt, _ := newIngressRuntime(t)
	for i := 0; i < 100; i++ {
		tm, err := rt.AfterFunc(time.Second, func() {})
		if err != nil {
			t.Fatalf("warmup: %v", err)
		}
		tm.Stop()
	}
	rt.Poll()
	allocs := testing.AllocsPerRun(500, func() {
		tm, err := rt.AfterFunc(time.Second, func() {})
		if err != nil {
			t.Fatalf("AfterFunc: %v", err)
		}
		if !tm.Stop() {
			t.Fatal("Stop refused")
		}
		rt.Poll()
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc+Stop+Poll allocates %.1f/op, want 0", allocs)
	}
}

// TestIngressOverloadHammerBatchedProducers has producer goroutines
// schedule and stop batches against the real driver, then shuts the
// runtime down mid-batch. Run under -race it checks the batch paths
// against the driver and Drain; the assertions check the conservation
// ledger.
func TestIngressOverloadHammerBatchedProducers(t *testing.T) {
	for _, mode := range []string{"drain", "close"} {
		t.Run(mode, func(t *testing.T) {
			rt := NewRuntime(
				WithGranularity(time.Millisecond),
				WithIngress(1<<10),
			)
			const producers = 4
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p)))
					var noop = func() {}
					for {
						select {
						case <-stop:
							return
						default:
						}
						reqs := make([]Req, 16)
						for i := range reqs {
							reqs[i] = Req{
								After: time.Duration(1+rng.Intn(20)) * time.Millisecond,
								Fn:    noop,
							}
						}
						timers, err := rt.ScheduleBatch(reqs)
						if err != nil {
							return // draining/closed: hammer over
						}
						// Stop a random half, single and batched.
						if rng.Intn(2) == 0 {
							rt.StopBatch(timers[:8])
						} else {
							for _, tm := range timers[:8] {
								if tm != nil {
									tm.Stop()
								}
							}
						}
					}
				}(p)
			}
			time.Sleep(50 * time.Millisecond)
			// Shut down while producers are mid-batch.
			switch mode {
			case "drain":
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				if _, err := rt.Drain(ctx, DrainWaitUntilDeadline); err != nil {
					t.Fatalf("Drain: %v", err)
				}
				cancel()
			case "close":
				rt.Close()
			}
			close(stop)
			wg.Wait()

			started, expired, stopped := rt.Stats()
			h := rt.Health()
			if started != expired+stopped+h.AbandonedOnClose {
				t.Fatalf("ledger: started=%d != expired=%d + stopped=%d + abandoned=%d",
					started, expired, stopped, h.AbandonedOnClose)
			}
			if started == 0 {
				t.Fatal("hammer admitted nothing; test is vacuous")
			}
		})
	}
}
