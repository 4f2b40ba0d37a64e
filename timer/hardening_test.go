package timer

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"timingwheels/internal/chaos"
)

// newChaosRuntime builds a manual-driver runtime over a chaos clock:
// fully deterministic, with anomaly injection on tap.
func newChaosRuntime(t *testing.T, opts ...RuntimeOption) (*Runtime, *chaos.Clock) {
	t.Helper()
	c := chaos.NewManual(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	opts = append([]RuntimeOption{
		WithGranularity(10 * time.Millisecond),
		WithNowFunc(c.Now),
		WithManualDriver(),
	}, opts...)
	rt := NewRuntime(opts...)
	t.Cleanup(func() { rt.Close() })
	return rt, c
}

func TestPanicIsolation(t *testing.T) {
	// Acceptance: a panicking expiry action must not stop later timers;
	// the recovery is counted and the handler observes the value.
	var observed []any
	rt, c := newChaosRuntime(t, WithPanicHandler(func(r any) { observed = append(observed, r) }))
	var order []string
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { order = append(order, "a") }); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AfterFunc(20*time.Millisecond, func() { panic("boom") }); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AfterFunc(30*time.Millisecond, func() { order = append(order, "c") }); err != nil {
		t.Fatal(err)
	}
	c.Advance(30 * time.Millisecond)
	if n := rt.Poll(); n != 3 {
		t.Fatalf("Poll fired %d, want 3", n)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "c" {
		t.Fatalf("order=%v: timers after the panic must still run", order)
	}
	if h := rt.Health(); h.PanicsRecovered != 1 {
		t.Fatalf("PanicsRecovered=%d", h.PanicsRecovered)
	}
	if len(observed) != 1 || observed[0] != "boom" {
		t.Fatalf("panic handler observed %v", observed)
	}
	// The runtime stays fully operational afterwards.
	fired := false
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	c.Advance(10 * time.Millisecond)
	rt.Poll()
	if !fired {
		t.Fatal("runtime dead after recovered panic")
	}
}

func TestPanicIsolationLiveDrivers(t *testing.T) {
	// The ticking and tickless driver goroutines must survive a callback
	// panic; a timer scheduled after the panic must still fire.
	drivers := map[string][]RuntimeOption{
		"ticking":  {WithGranularity(time.Millisecond)},
		"tickless": {WithGranularity(time.Millisecond), WithScheme(NewTree(TreeHeap)), WithTickless()},
	}
	for name, opts := range drivers {
		t.Run(name, func(t *testing.T) {
			rt := NewRuntime(opts...)
			defer rt.Close()
			if _, err := rt.AfterFunc(time.Millisecond, func() { panic("driver killer") }); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			if _, err := rt.AfterFunc(5*time.Millisecond, func() { close(done) }); err != nil {
				t.Fatal(err)
			}
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("driver goroutine died on a callback panic")
			}
			if h := rt.Health(); h.PanicsRecovered != 1 {
				t.Fatalf("PanicsRecovered=%d", h.PanicsRecovered)
			}
		})
	}
}

func TestPanicHandlerPanicIsSwallowed(t *testing.T) {
	rt, c := newChaosRuntime(t, WithPanicHandler(func(any) { panic("handler gone bad") }))
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { panic("original") }); err != nil {
		t.Fatal(err)
	}
	c.Advance(10 * time.Millisecond)
	rt.Poll() // must not panic out of Poll
	ok := false
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { ok = true }); err != nil {
		t.Fatal(err)
	}
	c.Advance(10 * time.Millisecond)
	rt.Poll()
	if !ok || rt.Health().PanicsRecovered != 1 {
		t.Fatalf("runtime unhealthy after misbehaving panic handler: %s", rt.Health())
	}
}

func TestSlowCallbackWatchdog(t *testing.T) {
	var slow []time.Duration
	rt, c := newChaosRuntime(t,
		WithCallbackBudget(10*time.Millisecond),
		WithSlowCallbackHandler(func(e time.Duration) { slow = append(slow, e) }),
	)
	// A fast callback stays under budget (the chaos clock does not move
	// while it runs).
	if _, err := rt.AfterFunc(10*time.Millisecond, func() {}); err != nil {
		t.Fatal(err)
	}
	c.Advance(10 * time.Millisecond)
	rt.Poll()
	if h := rt.Health(); h.SlowCallbacks != 0 {
		t.Fatalf("fast callback counted slow: %s", h)
	}
	// A slow callback: it consumes 50ms of clock, 5x the budget.
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { c.Advance(50 * time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
	c.Advance(10 * time.Millisecond)
	rt.Poll()
	if h := rt.Health(); h.SlowCallbacks != 1 {
		t.Fatalf("SlowCallbacks=%d", h.SlowCallbacks)
	}
	if len(slow) != 1 || slow[0] < 50*time.Millisecond {
		t.Fatalf("slow handler observed %v", slow)
	}
}

// TestOverloadShedding: the runtime has no dispatch queue to overflow.
// A tick's surplus expiries all run inline in the poll that finds them;
// none is dropped, queued for later, or counted as anything but
// delivered.
func TestOverloadShedding(t *testing.T) {
	rt, c := newChaosRuntime(t)
	var ran atomic.Int64
	for i := 0; i < 64; i++ {
		if _, err := rt.AfterFunc(10*time.Millisecond, func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(10 * time.Millisecond)
	if n := rt.Poll(); n != 64 {
		t.Fatalf("Poll fired %d, want 64", n)
	}
	if ran.Load() != 64 {
		t.Fatalf("ran %d of 64 actions by the time Poll returned", ran.Load())
	}
	if h := rt.Health(); h.Delivered != 64 {
		t.Fatalf("health %s, want 64 delivered", h)
	}
}

// TestOverloadCriticalNeverShed runs seeded bursts at ten times the
// old dispatch queue's capacity, through a clock jump, a stall and a
// resume, and requires every timer to run exactly once: with no
// overload layer, no expiry of any kind is ever shed.
func TestOverloadCriticalNeverShed(t *testing.T) {
	rt, clk := newChaosRuntime(t)
	rng := uint64(0x5EED)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	var ran atomic.Int64
	const bursts, perBurst = 10, 5
	for round := 0; round < bursts; round++ {
		for i := 0; i < perBurst; i++ {
			d := time.Duration(1+next(3)) * 10 * time.Millisecond
			if _, err := rt.AfterFunc(d, func() { ran.Add(1) }); err != nil {
				t.Fatal(err)
			}
		}
		switch round {
		case 3:
			clk.Jump(50 * time.Millisecond)
		case 6:
			clk.Stall()
		case 8:
			clk.Resume()
		}
		clk.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	for i := 0; i < 16; i++ {
		clk.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	const total = bursts * perBurst
	if ran.Load() != total {
		t.Fatalf("ran %d of %d actions", ran.Load(), total)
	}
	started, expired, stopped := rt.Stats()
	if h := rt.Health(); started != total || expired != total || stopped != 0 || h.Delivered != total {
		t.Fatalf("started=%d expired=%d stopped=%d delivered=%d, want %d/%d/0/%d",
			started, expired, stopped, h.Delivered, total, total, total)
	}
	if out := rt.Outstanding(); out != 0 {
		t.Fatalf("outstanding=%d after every deadline passed", out)
	}
}

func TestForwardJumpBoundedCatchUp(t *testing.T) {
	// Acceptance: a 10-minute clock jump (suspend/resume) must drain in
	// bounded per-poll bursts, not one unbounded expiry storm, and be
	// recorded as an anomaly.
	rt, c := newChaosRuntime(t, WithMaxCatchUp(100)) // 100 ticks = 1s per poll
	const timers = 600
	fired := 0
	for i := 1; i <= timers; i++ {
		if _, err := rt.AfterFunc(time.Duration(i)*time.Second, func() { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(10 * time.Minute) // 60000 ticks in one leap

	first := rt.Poll()
	if first > 2 {
		t.Fatalf("first poll fired %d expiries; the catch-up cap did not bound the burst", first)
	}
	h := rt.Health()
	if h.Anomalies != 1 || h.LastAnomaly.Kind != AnomalyForwardJump {
		t.Fatalf("jump not recorded: %s", h)
	}
	if h.LastAnomaly.Ticks != 60000 {
		t.Fatalf("anomaly magnitude %d ticks, want 60000", h.LastAnomaly.Ticks)
	}
	if h.TicksBehind != 60000-100 {
		t.Fatalf("TicksBehind=%d, want %d", h.TicksBehind, 60000-100)
	}

	// Drain like a background driver would: poll until caught up, and
	// verify every batch stays bounded.
	maxBurst, polls := first, 1
	for rt.Health().TicksBehind > 0 {
		if polls++; polls > 2*timers {
			t.Fatalf("catch-up did not converge after %d polls", polls)
		}
		if n := rt.Poll(); n > maxBurst {
			maxBurst = n
		}
	}
	if fired != timers {
		t.Fatalf("fired %d/%d timers after catch-up", fired, timers)
	}
	if maxBurst > 2 {
		t.Fatalf("max per-poll burst %d; catch-up was not bounded", maxBurst)
	}
	// Only one anomaly for the whole episode, and none outstanding.
	if h = rt.Health(); h.Anomalies != 1 || h.TicksBehind != 0 {
		t.Fatalf("post-drain health %s", h)
	}
}

func TestUnboundedCatchUpOptOut(t *testing.T) {
	rt, c := newChaosRuntime(t, WithMaxCatchUp(0)) // explicit opt-out
	fired := 0
	for i := 1; i <= 100; i++ {
		if _, err := rt.AfterFunc(time.Duration(i)*time.Second, func() { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(10 * time.Minute)
	if n := rt.Poll(); n != 100 {
		t.Fatalf("uncapped poll fired %d, want all 100", n)
	}
	if h := rt.Health(); h.Anomalies != 0 || h.TicksBehind != 0 {
		t.Fatalf("uncapped catch-up should record nothing: %s", h)
	}
}

func TestBackwardStepRecorded(t *testing.T) {
	rt, c := newChaosRuntime(t)
	fired := 0
	if _, err := rt.AfterFunc(50*time.Millisecond, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	c.Advance(30 * time.Millisecond)
	rt.Poll()
	c.Regress(20 * time.Millisecond) // NTP steps the clock back 2 ticks
	rt.Poll()
	h := rt.Health()
	if h.Anomalies != 1 || h.LastAnomaly.Kind != AnomalyBackwardStep || h.LastAnomaly.Ticks != 2 {
		t.Fatalf("backward step not recorded: %s", h)
	}
	if fired != 0 {
		t.Fatal("timer fired during clock regression")
	}
	// Steady state after the step records nothing further.
	c.Advance(10 * time.Millisecond)
	rt.Poll()
	if h = rt.Health(); h.Anomalies != 1 {
		t.Fatalf("anomaly double-counted: %s", h)
	}
	// And the timer still fires once the clock passes its deadline.
	c.Advance(40 * time.Millisecond)
	rt.Poll()
	if fired != 1 {
		t.Fatalf("fired=%d after recovery", fired)
	}
}

func TestJitteryClockIsSafe(t *testing.T) {
	// A jittery clock (readings wobble around the true time) must never
	// rewind the facility or fire timers early by more than the jitter
	// window, and the runtime must stay live throughout.
	c := chaos.NewManual(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	c.SetJitter(5*time.Millisecond, 7)
	rt := NewRuntime(
		WithGranularity(10*time.Millisecond),
		WithNowFunc(c.Now),
		WithManualDriver(),
	)
	defer rt.Close()
	fired := 0
	if _, err := rt.AfterFunc(100*time.Millisecond, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	if fired != 0 {
		t.Fatal("jitter fired a timer ~20ms early")
	}
	for i := 0; i < 4; i++ {
		c.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	if fired != 1 {
		t.Fatalf("fired=%d after deadline under jitter", fired)
	}
}

func TestShardedHealthAggregates(t *testing.T) {
	c := chaos.NewManual(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	s := NewSharded(2,
		WithGranularity(10*time.Millisecond),
		WithNowFunc(c.Now),
		WithManualDriver(),
		WithMaxCatchUp(100),
	)
	defer s.Close()
	// One panicking timer per shard.
	for i := range s.shards {
		if _, err := s.shards[i].rt.AfterFunc(10*time.Millisecond, func() { panic("per-shard") }); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(10 * time.Millisecond)
	for i := range s.shards {
		s.shards[i].rt.Poll()
	}
	h := s.Health()
	if h.PanicsRecovered != 2 {
		t.Fatalf("aggregate PanicsRecovered=%d, want 2", h.PanicsRecovered)
	}
	if started, expired, _ := s.Stats(); started != 2 || expired != 2 {
		t.Fatalf("aggregate stats started=%d expired=%d", started, expired)
	}
	// A host-clock jump shows up on every shard.
	c.Advance(10 * time.Minute)
	for i := range s.shards {
		s.shards[i].rt.Poll()
	}
	h = s.Health()
	if h.Anomalies != 2 || h.LastAnomaly.Kind != AnomalyForwardJump {
		t.Fatalf("aggregate anomalies: %s", h)
	}
	if h.TicksBehind == 0 {
		t.Fatal("aggregate TicksBehind should reflect the in-progress catch-up")
	}
}

func TestHealthString(t *testing.T) {
	rt, _ := newChaosRuntime(t)
	s := rt.Health().String()
	for _, want := range []string{"panics=0", "behind=0", "last=none"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Health.String()=%q missing %q", s, want)
		}
	}
	if AnomalyForwardJump.String() != "forward-jump" || AnomalyBackwardStep.String() != "backward-step" {
		t.Fatal("AnomalyKind.String mismatch")
	}
}
