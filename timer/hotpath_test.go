package timer

import (
	"testing"
	"time"

	"timingwheels/clock"
	"timingwheels/internal/hashwheel"
)

// noopAction is shared across alloc tests so the measured loop doesn't
// allocate a fresh closure per iteration.
func noopAction() {}

// TestScheduleStopAllocFree locks in the tentpole: once the free lists
// are warm, an AfterFunc+Stop cycle allocates nothing — no Timer, no
// facility entry, no closure.
func TestScheduleStopAllocFree(t *testing.T) {
	rt, _ := newManualRuntime(t)
	// Warm the pools: Timer objects, wheel entries, and the free-list
	// slices' capacity.
	for i := 0; i < 64; i++ {
		tm, err := rt.AfterFunc(time.Second, noopAction)
		if err != nil {
			t.Fatal(err)
		}
		if !tm.Stop() {
			t.Fatal("warmup Stop failed")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		tm, err := rt.AfterFunc(time.Second, noopAction)
		if err != nil {
			t.Fatal(err)
		}
		if !tm.Stop() {
			t.Fatal("Stop failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc+Stop steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// entrySchemes are the production schemes, whose entries the runtime's
// Timers embed. The hybrid's wheel spans 512 ticks (5.12s at the test
// granularity), so every interval used with it below stays inside the
// wheel.
var entrySchemes = map[string]func() Scheme{
	"scheme5":     func() Scheme { return NewHashedWheelSorted(512) },
	"scheme6":     func() Scheme { return NewHashedWheel(512) },
	"scheme6-abs": func() Scheme { return hashwheel.NewScheme6Absolute(512, nil) },
	"scheme7":     func() Scheme { return NewHierarchicalWheel([]int{64, 64, 64}, MigrateAlways) },
	"hybrid":      func() Scheme { return NewHybridWheel(512) },
	"gsq":         func() Scheme { return NewGroupedQueue(64, 8) },
}

// TestOneObjectPerArmedTimer pins the memory layout: the Timer embeds
// its scheme entry, so with an empty free list one AfterFunc allocates
// exactly one object — the Timer — on every production scheme, and a
// warm AfterFunc+Stop cycle allocates nothing.
func TestOneObjectPerArmedTimer(t *testing.T) {
	for name, mk := range entrySchemes {
		t.Run(name, func(t *testing.T) {
			rt, _ := newManualRuntime(t, WithScheme(mk()))
			cold := testing.AllocsPerRun(200, func() {
				if _, err := rt.AfterFunc(time.Second, noopAction); err != nil {
					t.Fatal(err)
				}
			})
			if cold != 1 {
				t.Fatalf("cold AfterFunc allocates %.2f objects/op, want exactly 1", cold)
			}
			for i := 0; i < 64; i++ {
				tm, err := rt.AfterFunc(time.Second, noopAction)
				if err != nil {
					t.Fatal(err)
				}
				tm.Stop()
			}
			warm := testing.AllocsPerRun(200, func() {
				tm, err := rt.AfterFunc(time.Second, noopAction)
				if err != nil {
					t.Fatal(err)
				}
				if !tm.Stop() {
					t.Fatal("Stop failed")
				}
			})
			if warm != 0 {
				t.Fatalf("warm AfterFunc+Stop allocates %.2f allocs/op, want 0", warm)
			}
		})
	}
}

// TestGroupedQueueHotPathAllocFree pins the same steady-state guarantee
// on the grouped sorting queue, including its headline operation: a
// warm Schedule+Stop cycle allocates nothing, and — because Reset
// relinks the Timer's own entry in place, with no Timer churn and no
// facility re-admission — a warm Schedule+Reset+Reset+Stop cycle
// allocates nothing either.
func TestGroupedQueueHotPathAllocFree(t *testing.T) {
	rt, _ := newManualRuntime(t, WithScheme(NewGroupedQueue(64, 8)))
	for i := 0; i < 64; i++ {
		tm, err := rt.AfterFunc(time.Second, noopAction)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tm.Reset(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !tm.Stop() {
			t.Fatal("warmup Stop failed")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		tm, err := rt.AfterFunc(time.Second, noopAction)
		if err != nil {
			t.Fatal(err)
		}
		if wasPending, err := tm.Reset(3 * time.Second); err != nil || !wasPending {
			t.Fatalf("Reset = (%v, %v)", wasPending, err)
		}
		if wasPending, err := tm.Reset(500 * time.Millisecond); err != nil || !wasPending {
			t.Fatalf("Reset = (%v, %v)", wasPending, err)
		}
		if !tm.Stop() {
			t.Fatal("Stop failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("gsq Schedule+Reset+Stop steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestScheduleStopAllocFreeWithTrace pins the same guarantee with the
// full telemetry layer engaged: histogram recording is atomic stores
// into fixed arrays, and the flight recorder writes into a preallocated
// ring, so WithTrace adds zero allocations to the schedule/stop cycle.
func TestScheduleStopAllocFreeWithTrace(t *testing.T) {
	rt, _ := newManualRuntime(t, WithTrace(1024))
	for i := 0; i < 64; i++ {
		tm, err := rt.AfterFunc(time.Second, noopAction)
		if err != nil {
			t.Fatal(err)
		}
		if !tm.Stop() {
			t.Fatal("warmup Stop failed")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		tm, err := rt.AfterFunc(time.Second, noopAction)
		if err != nil {
			t.Fatal(err)
		}
		if !tm.Stop() {
			t.Fatal("Stop failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc+Stop with WithTrace allocates %.1f allocs/op, want 0", allocs)
	}
	if got := len(rt.TraceEvents()); got == 0 {
		t.Fatal("trace recorded nothing")
	}
}

// TestDeliveryTelemetryAddsNoAllocs extends the guarantee through the
// firing path. A schedule+fire cycle costs exactly one allocation by
// design — the Timer handle, which is never recycled on fire because
// the caller may still Reset it — and the telemetry layer (lag,
// duration, and batch histogram records plus two trace events per
// cycle) must add nothing to that.
func TestDeliveryTelemetryAddsNoAllocs(t *testing.T) {
	measure := func(opts ...RuntimeOption) float64 {
		rt, fc := newManualRuntime(t, opts...)
		cycle := func() {
			if _, err := rt.AfterFunc(10*time.Millisecond, noopAction); err != nil {
				t.Fatal(err)
			}
			fc.Advance(10 * time.Millisecond)
			rt.Poll()
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		return testing.AllocsPerRun(200, cycle)
	}
	plain := measure()
	traced := measure(WithTrace(1024))
	if traced > plain {
		t.Fatalf("schedule+fire: %.1f allocs/op with telemetry vs %.1f without", traced, plain)
	}
}

// TestScheduleStopAllocFreeWithPriority pins the same guarantee with the
// overload machinery engaged: ScheduleOptions are plain values, and the
// priority rides inside the recycled Timer, so WithPriority adds no
// allocations to the hot path.
func TestScheduleStopAllocFreeWithPriority(t *testing.T) {
	rt, _ := newManualRuntime(t)
	for i := 0; i < 64; i++ {
		tm, err := rt.AfterFunc(time.Second, noopAction, WithPriority(PriorityCritical))
		if err != nil {
			t.Fatal(err)
		}
		if !tm.Stop() {
			t.Fatal("warmup Stop failed")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		tm, err := rt.AfterFunc(time.Second, noopAction, WithPriority(PriorityCritical))
		if err != nil {
			t.Fatal(err)
		}
		if tm.Priority() != PriorityCritical {
			t.Fatal("priority not carried")
		}
		if !tm.Stop() {
			t.Fatal("Stop failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc(WithPriority)+Stop allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestScheduleStopAllocFreeWithClockSource pins the guarantee through
// the clock indirection: WithClockSource routes Now through an
// interface, and neither the interface call nor the Fake's bookkeeping
// may put allocations on the schedule/stop or poll path.
func TestScheduleStopAllocFreeWithClockSource(t *testing.T) {
	fc := clock.NewFake(time.Time{})
	rt := NewRuntime(
		WithGranularity(10*time.Millisecond),
		WithClockSource(fc),
		WithManualDriver(),
	)
	t.Cleanup(func() { rt.Close() })
	for i := 0; i < 64; i++ {
		tm, err := rt.AfterFunc(time.Second, noopAction)
		if err != nil {
			t.Fatal(err)
		}
		if !tm.Stop() {
			t.Fatal("warmup Stop failed")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		tm, err := rt.AfterFunc(time.Second, noopAction)
		if err != nil {
			t.Fatal(err)
		}
		if !tm.Stop() {
			t.Fatal("Stop failed")
		}
		rt.Poll()
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc+Stop+Poll via WithClockSource allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestPollAllocFreeWhenIdle verifies the fired-buffer reuse: polls after
// warmup allocate nothing, whether or not timers fire (the fired Timer
// objects themselves are owned by the caller and excluded — only the
// runtime's own machinery is measured, via Stop-recycled timers).
func TestPollAllocFreeWhenIdle(t *testing.T) {
	rt, fc := newManualRuntime(t)
	// One full fire cycle sizes the fired buffers.
	for i := 0; i < 8; i++ {
		if _, err := rt.AfterFunc(10*time.Millisecond, noopAction); err != nil {
			t.Fatal(err)
		}
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	allocs := testing.AllocsPerRun(100, func() {
		fc.Advance(10 * time.Millisecond)
		rt.Poll()
	})
	if allocs != 0 {
		t.Fatalf("idle Poll allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTimerReuseAcrossScheduleStop checks the pool actually recycles:
// the Timer returned after a Stop round-trip is the same object.
func TestTimerReuseAcrossScheduleStop(t *testing.T) {
	rt, _ := newManualRuntime(t)
	t1, err := rt.AfterFunc(time.Second, noopAction)
	if err != nil {
		t.Fatal(err)
	}
	if !t1.Stop() {
		t.Fatal("Stop failed")
	}
	t2, err := rt.AfterFunc(time.Second, noopAction)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("Timer object was not recycled through the free list")
	}
	// The recycled timer is live again: it must fire normally.
	if !t2.Stop() {
		t.Fatal("recycled timer should stop cleanly")
	}
}

// TestStaleStopAfterRecycleIsInert is the ABA regression test: a second
// Stop on an already-stopped (hence recycled) timer must not cancel the
// timer that has since reused the object, and a late Stop on a fired
// timer finds its entry fired and reports false.
func TestStaleStopAfterRecycleIsInert(t *testing.T) {
	rt, fc := newManualRuntime(t)
	stale, err := rt.AfterFunc(time.Second, noopAction)
	if err != nil {
		t.Fatal(err)
	}
	if !stale.Stop() {
		t.Fatal("first Stop failed")
	}
	// This schedule reuses the Timer object, and with it the entry it
	// embeds.
	fired := 0
	fresh, err := rt.AfterFunc(10*time.Millisecond, func() { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	if fresh != stale {
		t.Skip("pool did not hand back the same object; ABA scenario not constructible")
	}
	// A (contract-violating, but historically common) duplicate Stop via
	// the stale reference refers to the same object here, so it DOES stop
	// the fresh timer. The scheme recycles nothing of its own — the entry
	// lives and dies with its Timer — so there is no second object a
	// stale handle could reach: stop the fresh timer, reschedule (a new
	// ID on the same entry), and verify only the new action fires.
	if !fresh.Stop() {
		t.Fatal("fresh Stop failed")
	}
	again, err := rt.AfterFunc(10*time.Millisecond, func() { fired += 10 })
	if err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	if fired != 10 {
		t.Fatalf("fired=%d: recycled entry misdelivered", fired)
	}
	// Fired timers are never recycled, so a late Stop finds the entry
	// fired and is refused.
	if again.Stop() {
		t.Fatal("late Stop on a fired timer reported true")
	}
}

// TestTickerDriftBounded is the satellite-a regression: with a 25ms
// period on a 10ms-tick runtime, the old post-action relative re-arm
// rounded every cycle up to 30ms, losing ~17% of firings. Absolute
// deadline scheduling keeps the long-run rate exact: over 1000 periods
// the firing count stays within one of the ideal.
func TestTickerDriftBounded(t *testing.T) {
	rt, fc := newManualRuntime(t)
	tk, err := rt.Every(25*time.Millisecond, noopAction)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Stop()
	const periods = 1000
	total := 25 * time.Millisecond * periods
	for elapsed := time.Duration(0); elapsed < total+10*time.Millisecond; elapsed += 10 * time.Millisecond {
		fc.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	runs := tk.Runs()
	if runs < periods-1 || runs > periods+1 {
		t.Fatalf("ticker ran %d times over %d periods; drift exceeds one tick", runs, periods)
	}
}

// TestTickerSkipsOverrunPeriods: an action that overruns a full period
// must self-throttle — missed periods are skipped in one step, phase
// kept — instead of firing a backlog burst.
func TestTickerSkipsOverrunPeriods(t *testing.T) {
	rt, fc := newManualRuntime(t)
	slow := false
	tk, err := rt.Every(20*time.Millisecond, func() {
		if !slow {
			slow = true
			// Simulate an action that takes 5 periods: the clock moves
			// while "running" (the manual driver makes this synchronous).
			fc.Advance(100 * time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Stop()
	// First firing at 20ms wall; its action drags the clock to 120ms.
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	if got := tk.Runs(); got != 1 {
		t.Fatalf("runs=%d after slow action, want 1", got)
	}
	// Catch-up polls must NOT deliver the 5 missed firings back to back:
	// the next deadline is the next on-phase boundary (140ms).
	for i := 0; i < 10; i++ {
		rt.Poll()
	}
	if got := tk.Runs(); got != 1 {
		t.Fatalf("runs=%d right after overrun, want 1 (missed periods skipped)", got)
	}
	fc.Advance(20 * time.Millisecond) // 140ms: on-phase boundary
	rt.Poll()
	if got := tk.Runs(); got != 2 {
		t.Fatalf("runs=%d at next phase boundary, want 2", got)
	}
}

// TestStatsInvariantUnderShedding is the satellite-b regression (PR 2),
// extended for drain accounting: with a saturated one-worker pool,
// expired must count what actually finished (delivered + shed), and a
// timer still outstanding at Close is counted in AbandonedOnClose —
// never silently lost — so
//
//	started == expired + stopped + outstanding + abandoned
//
// holds at quiescence instead of double-counting shed actions or
// leaking the abandoned one.
func TestStatsInvariantUnderShedding(t *testing.T) {
	rt, fc := newManualRuntime(t, WithAsyncDispatch(1, 1))
	gate := make(chan struct{})
	block := func() { <-gate }
	for i := 0; i < 5; i++ {
		if _, err := rt.AfterFunc(10*time.Millisecond, block); err != nil {
			t.Fatal(err)
		}
	}
	// Two long timers: one stopped, one left to be abandoned at Close.
	longA, err := rt.AfterFunc(time.Hour, noopAction)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AfterFunc(time.Hour, noopAction); err != nil {
		t.Fatal(err)
	}
	if !longA.Stop() {
		t.Fatal("Stop failed")
	}
	fc.Advance(10 * time.Millisecond)
	if n := rt.Poll(); n != 5 {
		t.Fatalf("Poll fired %d, want 5", n)
	}
	h := rt.Health()
	if h.ShedExpiries == 0 {
		t.Fatalf("expected shedding with 1 worker / queue 1: %s", h)
	}
	if h.AbandonedOnClose != 0 {
		t.Fatalf("abandoned=%d before Close", h.AbandonedOnClose)
	}
	close(gate)
	rt.Close() // drains the pool: every dispatched action has now run
	started, expired, stopped := rt.Stats()
	outstanding := uint64(rt.Outstanding())
	h = rt.Health()
	if started != expired+stopped+outstanding+h.AbandonedOnClose {
		t.Fatalf("invariant broken: started=%d expired=%d stopped=%d outstanding=%d abandoned=%d",
			started, expired, stopped, outstanding, h.AbandonedOnClose)
	}
	if h.AbandonedOnClose != 1 {
		t.Fatalf("abandoned=%d, want 1 (the un-stopped hour timer)", h.AbandonedOnClose)
	}
	if outstanding != 0 {
		t.Fatalf("outstanding=%d on a closed runtime, want 0", outstanding)
	}
	if expired != h.Delivered+h.ShedExpiries {
		t.Fatalf("expired=%d != delivered=%d + shed=%d", expired, h.Delivered, h.ShedExpiries)
	}
	if h.Delivered+h.ShedExpiries != 5 {
		t.Fatalf("delivered=%d shed=%d, want 5 total", h.Delivered, h.ShedExpiries)
	}
	// The per-class split must sum to the totals (everything here was
	// default PriorityNormal).
	nc := h.ByClass[PriorityNormal]
	if nc.Delivered != h.Delivered || nc.Shed != h.ShedExpiries {
		t.Fatalf("ByClass[normal]=%+v, want the whole delivered/shed total", nc)
	}
}

// TestAfterDeliversUnderShedding is the satellite-c regression: After
// sends are non-blocking by construction and run inline on the driver,
// so a saturated dispatch pool can never strand the channel receiver.
func TestAfterDeliversUnderShedding(t *testing.T) {
	rt, fc := newManualRuntime(t, WithAsyncDispatch(1, 0))
	gate := make(chan struct{})
	defer close(gate)
	// Saturate: several blocking actions due on the same tick.
	for i := 0; i < 4; i++ {
		if _, err := rt.AfterFunc(10*time.Millisecond, func() { <-gate }); err != nil {
			t.Fatal(err)
		}
	}
	ch, err := rt.After(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	select {
	case <-ch:
	default:
		t.Fatal("After channel did not receive: send was shed or deferred")
	}
	if h := rt.Health(); h.ShedExpiries == 0 {
		t.Fatalf("test precondition: pool should have shed something: %s", h)
	}
}

// TestRuntimeFallbackScheme drives the runtime over facilities that are
// NOT entry schemes (a Scheme 2 ordered list, and an instrumented
// wrapper that hides Scheme 6's entry operations), pinning the
// closure-based adapter: schedule, fire, stop, and stats must behave
// identically, just without the one-object, zero-alloc guarantee.
func TestRuntimeFallbackScheme(t *testing.T) {
	instrumented, _ := Instrument(NewHashedWheel(64))
	schemes := map[string]Scheme{
		"ordered-list": NewOrderedList(SearchFromFront),
		"instrumented": instrumented,
	}
	for name, sch := range schemes {
		t.Run(name, func(t *testing.T) {
			rt, fc := newManualRuntime(t, WithScheme(sch))
			fired := 0
			if _, err := rt.AfterFunc(20*time.Millisecond, func() { fired++ }); err != nil {
				t.Fatal(err)
			}
			tm, err := rt.AfterFunc(time.Hour, noopAction)
			if err != nil {
				t.Fatal(err)
			}
			fc.Advance(20 * time.Millisecond)
			if n := rt.Poll(); n != 1 || fired != 1 {
				t.Fatalf("fired=%d poll=%d", fired, n)
			}
			if !tm.Stop() {
				t.Fatal("Stop failed on fallback scheme")
			}
			if tm.Stop() {
				t.Fatal("double Stop should report false")
			}
			started, expired, stopped := rt.Stats()
			if started != 2 || expired != 1 || stopped != 1 {
				t.Fatalf("stats=%d/%d/%d", started, expired, stopped)
			}
		})
	}
}
