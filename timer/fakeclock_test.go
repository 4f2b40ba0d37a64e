package timer

import (
	"context"
	"runtime"
	"testing"
	"time"

	"timingwheels/clock"
)

// newFakeRuntime stands up a manual-driver runtime whose every time
// read comes from a public clock.Fake — the deterministic harness the
// sleep-based hardening regressions are ported onto. Zero time.Sleep:
// virtual time moves only when the test advances it.
func newFakeRuntime(t *testing.T, opts ...RuntimeOption) (*Runtime, *clock.Fake) {
	t.Helper()
	fc := clock.NewFake(time.Time{})
	opts = append([]RuntimeOption{
		WithGranularity(10 * time.Millisecond),
		WithClockSource(fc),
		WithManualDriver(),
	}, opts...)
	rt := NewRuntime(opts...)
	t.Cleanup(func() { rt.Close() })
	return rt, fc
}

// TestFakeClockStaleParkDoesNotFireEarly is the deterministic port of
// TestTicklessStaleParkDoesNotFireEarly: the facility's virtual time is
// left 50 ticks behind the wall clock (a parked driver), and a timer
// scheduled against that stale base must still fire at its wall-clock
// deadline, not 500ms early.
func TestFakeClockStaleParkDoesNotFireEarly(t *testing.T) {
	rt, fc := newFakeRuntime(t, WithScheme(NewTree(TreeHeap)))
	// 50 ticks pass with no Poll — exactly what a tickless driver parked
	// on a far deadline observes.
	fc.Advance(500 * time.Millisecond)

	fired := false
	if _, err := rt.AfterFunc(100*time.Millisecond, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	// The catch-up Poll brings the facility to the wall tick; the timer's
	// interval was stretched, so it must survive the catch-up.
	for rt.Poll(); rt.Health().TicksBehind > 0; {
		rt.Poll()
	}
	if fired {
		t.Fatal("timer fired during catch-up, before its 100ms wall-clock deadline")
	}
	fc.Advance(90 * time.Millisecond)
	rt.Poll()
	if fired {
		t.Fatal("timer fired one tick before its wall-clock deadline")
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	if !fired {
		t.Fatal("timer never fired after its wall-clock deadline passed")
	}
}

// TestFakeClockTickerPhaseDrift ports the ticker drift regression: over
// many periods on a jittery poll cadence, the absolute deadline chain
// must keep the Nth firing within one tick of N*period — the firing
// count tracks elapsed/period exactly, without cumulative drift.
func TestFakeClockTickerPhaseDrift(t *testing.T) {
	rt, fc := newFakeRuntime(t)
	var runs int
	tk, err := rt.Every(35*time.Millisecond, func() { runs++ })
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Stop()

	// Advance in ragged steps that never align with the 35ms period (but
	// stay under it, so the self-throttling skip logic never engages); a
	// relative re-arm (deadline = now + period) would slip one round-up
	// error (up to one 10ms tick) every firing — ~28 periods behind by
	// the end. The absolute chain must stay within one period.
	elapsed := time.Duration(0)
	steps := []time.Duration{10, 30, 20, 10, 30, 30, 10, 20}
	for i := 0; i < 125; i++ {
		d := steps[i%len(steps)] * time.Millisecond
		fc.Advance(d)
		elapsed += d
		rt.Poll()
	}
	want := int(elapsed / (35 * time.Millisecond))
	if runs < want-1 || runs > want+1 {
		t.Fatalf("ticker ran %d times over %v; want %d±1 (phase drifted)", runs, elapsed, want)
	}
}

// TestFakeClockCatchUpAfterStall ports the stall/catch-up regression: a
// 10-minute clock jump with WithMaxCatchUp(100) must drain in bounded
// bursts — never more than the budget per poll — fire every due timer,
// and record a forward-jump anomaly, all in virtual time.
func TestFakeClockCatchUpAfterStall(t *testing.T) {
	rt, fc := newFakeRuntime(t, WithMaxCatchUp(100))
	const timers = 60
	fired := 0
	for i := 1; i <= timers; i++ {
		if _, err := rt.AfterFunc(time.Duration(i)*10*time.Second, func() { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	fc.Advance(10 * time.Minute) // the stall: 60k ticks pass unobserved

	polls := 0
	for {
		n := rt.Poll()
		polls++
		if n > 100 {
			t.Fatalf("poll %d fired %d expiries; the catch-up cap did not bound the burst", polls, n)
		}
		if rt.Health().TicksBehind == 0 {
			break
		}
		if polls > 61_000 {
			t.Fatal("catch-up did not converge")
		}
	}
	if fired != timers {
		t.Fatalf("fired %d/%d timers after catch-up", fired, timers)
	}
	h := rt.Health()
	if h.Anomalies == 0 || h.LastAnomaly.Kind != AnomalyForwardJump {
		t.Fatalf("stall not recorded as a forward jump: %s", h)
	}
}

// TestTicklessDriverOnFakeClock proves the tickless sleeper itself runs
// on the injected clock: with auto-advance on, every sleep the driver
// takes jumps virtual time to its own wakeup, so scheduled timers fire
// with no real time passing beyond scheduling overhead.
func TestTicklessDriverOnFakeClock(t *testing.T) {
	fc := clock.NewFake(time.Time{})
	fc.SetAutoAdvance(true)
	rt := NewRuntime(
		WithGranularity(10*time.Millisecond),
		WithClockSource(fc),
		WithScheme(NewTree(TreeHeap)),
		WithTickless(),
	)
	defer rt.Close()
	fired := make(chan struct{})
	if _, err := rt.AfterFunc(30*time.Minute, func() { close(fired) }); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("30-minute timer never fired; tickless sleeper is not on the injected clock")
	}
	if real := time.Since(start); real > 5*time.Second {
		t.Fatalf("30 virtual minutes took %v real; driver slept on the wall clock", real)
	}
}

// TestDrainWaitOnFakeClock is the committed regression for the Drain
// poll-loop bug: drainWait spun on time.After(granularity), ignoring
// the injected clock, so draining a timer 50 virtual seconds out at 10s
// granularity would block ~50 real seconds. Routed through the clock
// source, the same drain completes in wall-negligible time.
func TestDrainWaitOnFakeClock(t *testing.T) {
	fc := clock.NewFake(time.Time{})
	rt := NewRuntime(
		WithGranularity(10*time.Second), // coarse: real-time polling would be glacial
		WithClockSource(fc),
		WithManualDriver(),
	)
	fired := 0
	if _, err := rt.AfterFunc(50*time.Second, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	// Auto-advance stands in for a cooperating advancer: each poll-loop
	// sleep jumps virtual time one granularity, so the drain makes
	// progress without any real waiting.
	fc.SetAutoAdvance(true)
	start := time.Now()
	rep, err := rt.Drain(context.Background(), DrainWaitUntilDeadline)
	if err != nil {
		t.Fatal(err)
	}
	if real := time.Since(start); real > 5*time.Second {
		t.Fatalf("virtual drain took %v real; poll loop is still on the wall clock", real)
	}
	if fired != 1 || rep.Fired != 1 {
		t.Fatalf("fired=%d report=%s; want the timer fired at its virtual deadline", fired, rep)
	}
	if rep.Cancelled != 0 {
		t.Fatalf("drain cancelled %d timers; want 0", rep.Cancelled)
	}
}

// TestRuntimeClockRoundTrip closes the tentpole loop: a runtime driven
// by a Fake serves as the clock.Clock for generic code, which observes
// wheel-scheduled wakeups in virtual time.
func TestRuntimeClockRoundTrip(t *testing.T) {
	rt, fc := newFakeRuntime(t)
	var c clock.Clock = rt.Clock()

	if !c.Now().Equal(fc.Now()) {
		t.Fatal("facility clock Now diverges from its source")
	}

	// After: delivery on the tick boundary at/after the deadline.
	ch := c.After(25 * time.Millisecond)
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	select {
	case <-ch:
		t.Fatal("After delivered before its deadline")
	default:
	}
	fc.Advance(10 * time.Millisecond) // 30ms: first tick >= 25ms
	rt.Poll()
	select {
	case <-ch:
	default:
		t.Fatal("After did not deliver at its rounded-up deadline")
	}

	// NewTimer: Stop, re-arm via Reset, fire, Reset again after firing.
	tm := c.NewTimer(20 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop on pending facility timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	if tm.Reset(20 * time.Millisecond) {
		t.Fatal("Reset of stopped timer reported pending")
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	select {
	case <-tm.C():
	default:
		t.Fatal("re-armed facility timer did not deliver")
	}
	if tm.Reset(20 * time.Millisecond) {
		t.Fatal("Reset after firing reported still pending")
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	select {
	case <-tm.C():
	default:
		t.Fatal("facility timer did not deliver after post-fire Reset")
	}

	// NewTicker: periodic deliveries, then silence after Stop.
	tk := c.NewTicker(10 * time.Millisecond)
	ticks := 0
	for i := 0; i < 3; i++ {
		fc.Advance(10 * time.Millisecond)
		rt.Poll()
		select {
		case <-tk.C():
			ticks++
		default:
		}
	}
	if ticks != 3 {
		t.Fatalf("facility ticker delivered %d/3", ticks)
	}
	tk.Stop()
	fc.Advance(50 * time.Millisecond)
	rt.Poll()
	select {
	case <-tk.C():
		t.Fatal("stopped facility ticker delivered")
	default:
	}

	// Sleep in a helper goroutine, woken by virtual advance + Poll.
	done := make(chan struct{})
	go func() {
		c.Sleep(30 * time.Millisecond)
		close(done)
	}()
	// The sleeper registers through rt.After; wait for it to be armed
	// before advancing (Outstanding counts it).
	for rt.Outstanding() == 0 {
		runtime.Gosched()
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Sleep on the facility clock never woke")
	}
}

// TestVirtualDriverRunsCompressedTime exercises the virtual-time engine:
// a day of periodic and one-shot traffic drains in one RunUntil call,
// firing every expiry at its own tick.
func TestVirtualDriverRunsCompressedTime(t *testing.T) {
	rt, vd := NewVirtualRuntime(
		WithGranularity(100*time.Millisecond),
		WithScheme(NewHybridWheel(1024)),
		WithMaxCatchUp(0), // virtual jumps are expected, not anomalies
	)
	defer rt.Close()

	const hour = time.Hour
	var oneShots, tickerRuns int
	for i := 1; i <= 24; i++ {
		if _, err := rt.AfterFunc(time.Duration(i)*hour, func() { oneShots++ }); err != nil {
			t.Fatal(err)
		}
	}
	tk, err := rt.Every(time.Minute, func() { tickerRuns++ })
	if err != nil {
		t.Fatal(err)
	}

	start := vd.Clock().Now()
	vd.Run(24 * hour)
	tk.Stop()

	if got := vd.Clock().Since(start); got != 24*hour {
		t.Fatalf("virtual clock advanced %v, want 24h", got)
	}
	if oneShots != 24 {
		t.Fatalf("one-shots fired %d/24", oneShots)
	}
	// 24h of one-minute firings; the last may be in flight at the horizon.
	if want := int(24 * hour / time.Minute); tickerRuns < want-1 || tickerRuns > want {
		t.Fatalf("ticker ran %d times, want ~%d", tickerRuns, want)
	}
	if h := rt.Health(); h.Anomalies != 0 {
		t.Fatalf("virtual run recorded anomalies: %s", h)
	}
	started, expired, stopped := rt.Stats()
	if started != expired+stopped+uint64(rt.Outstanding()) {
		t.Fatalf("ledger open after virtual run: started=%d expired=%d stopped=%d outstanding=%d",
			started, expired, stopped, rt.Outstanding())
	}
}

// TestFiringWindowOneGranularity pins the firing window of a wall-clock
// delay on an on-time driver: the delay counts from the start of the
// current tick, rounded up to whole ticks, so the timer fires within one
// granularity either side of armedAt+d — early when armed late in a
// tick, late when d is not a whole number of ticks. The driver polls
// every millisecond, so each tick boundary is polled on time.
func TestFiringWindowOneGranularity(t *testing.T) {
	const g = 10 * time.Millisecond
	cases := []struct {
		offset, d time.Duration // arm offset into the tick, requested delay
		after     time.Duration // exact arm-to-fire time
	}{
		{0, 10 * time.Millisecond, 10 * time.Millisecond},
		{3 * time.Millisecond, 10 * time.Millisecond, 7 * time.Millisecond},
		{7 * time.Millisecond, 10 * time.Millisecond, 3 * time.Millisecond},
		{9 * time.Millisecond, 10 * time.Millisecond, 1 * time.Millisecond},
		{0, 1 * time.Millisecond, 10 * time.Millisecond},
		{9 * time.Millisecond, 1 * time.Millisecond, 1 * time.Millisecond},
		{0, 25 * time.Millisecond, 30 * time.Millisecond},
		{7 * time.Millisecond, 25 * time.Millisecond, 23 * time.Millisecond},
		{5 * time.Millisecond, 40 * time.Millisecond, 35 * time.Millisecond},
	}
	for _, c := range cases {
		rt, fc := newFakeRuntime(t)
		fc.Advance(4*g + c.offset) // some ticks in, then part-way into one
		rt.Poll()
		armed := fc.Now()
		var fired time.Time
		if _, err := rt.AfterFunc(c.d, func() { fired = fc.Now() }); err != nil {
			t.Fatal(err)
		}
		for fired.IsZero() && fc.Since(armed) <= c.d+2*g {
			fc.Advance(time.Millisecond)
			rt.Poll()
		}
		if fired.IsZero() {
			t.Fatalf("offset %v, AfterFunc(%v): never fired", c.offset, c.d)
		}
		got := fired.Sub(armed)
		if got != c.after {
			t.Errorf("offset %v, AfterFunc(%v): fired after %v, want %v", c.offset, c.d, got, c.after)
		}
		if miss := got - c.d; miss <= -g || miss >= g {
			t.Errorf("offset %v, AfterFunc(%v): %v from the wall deadline, outside one granularity", c.offset, c.d, miss)
		}
	}
}
