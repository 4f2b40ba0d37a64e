package timer

import (
	"fmt"
	"time"
)

// DefaultMaxCatchUp is the per-Poll catch-up budget, in ticks, unless
// configured with WithMaxCatchUp. At the default 10ms granularity it
// lets one poll absorb ~41s of missed time; anything larger (a laptop
// suspend, a forward NTP step) is treated as a clock anomaly and drained
// across several bounded polls instead of one unbounded expiry storm.
const DefaultMaxCatchUp = 4096

// AnomalyKind classifies a clock anomaly observed by the runtime.
type AnomalyKind uint8

// Clock anomaly kinds.
const (
	// AnomalyNone means no anomaly has been observed.
	AnomalyNone AnomalyKind = iota
	// AnomalyForwardJump means the wall clock leapt further ahead than
	// the per-poll catch-up budget (suspend/resume, forward NTP step).
	AnomalyForwardJump
	// AnomalyBackwardStep means the wall clock moved backwards (backward
	// NTP step). Timers are unaffected — the runtime never rewinds — but
	// new wall readings lag until the clock passes its old high-water
	// mark.
	AnomalyBackwardStep
)

// String returns the anomaly kind's name.
func (k AnomalyKind) String() string {
	switch k {
	case AnomalyNone:
		return "none"
	case AnomalyForwardJump:
		return "forward-jump"
	case AnomalyBackwardStep:
		return "backward-step"
	default:
		return fmt.Sprintf("anomaly(%d)", uint8(k))
	}
}

// Anomaly records one observed clock anomaly.
type Anomaly struct {
	// Kind is the anomaly class.
	Kind AnomalyKind
	// Ticks is the magnitude: ticks the clock jumped ahead of the
	// facility (forward) or regressed below its high-water mark
	// (backward).
	Ticks int64
	// Wall is the clock reading at detection time.
	Wall time.Time
}

// Health is a point-in-time snapshot of the runtime's hardening state —
// the counters a production service exports to decide whether its timer
// facility is keeping up.
type Health struct {
	// PanicsRecovered counts expiry actions that panicked and were
	// contained by the runtime's recovery barrier.
	PanicsRecovered uint64
	// SlowCallbacks counts expiry actions that exceeded the configured
	// callback budget (0 unless WithCallbackBudget is set).
	SlowCallbacks uint64
	// Delivered counts expiry actions that actually ran to completion
	// (including ones that panicked and were recovered), After sends
	// performed, and journal-only fires: Stats' expired.
	Delivered uint64
	// AbandonedOnClose counts timers that were still outstanding when
	// Close (or a Drain policy) cancelled them: they never fired and
	// never will. With it, started == Delivered + stopped +
	// Outstanding() + AbandonedOnClose balances.
	AbandonedOnClose uint64
	// TicksBehind is how many wall ticks the facility still has to catch
	// up after the last poll; nonzero means a catch-up episode (clock
	// jump or sustained overload) is in progress.
	TicksBehind int64
	// Anomalies counts clock anomalies observed since construction.
	Anomalies uint64
	// LastAnomaly is the most recent anomaly (Kind == AnomalyNone if
	// there has never been one).
	LastAnomaly Anomaly
}

// String summarizes the snapshot.
func (h Health) String() string {
	return fmt.Sprintf(
		"panics=%d slow=%d delivered=%d abandoned=%d behind=%d anomalies=%d last=%s",
		h.PanicsRecovered, h.SlowCallbacks, h.Delivered, h.AbandonedOnClose,
		h.TicksBehind, h.Anomalies, h.LastAnomaly.Kind)
}

// WithPanicHandler installs fn to observe the value recovered from a
// panicking expiry action. The runtime always recovers callback panics —
// one bad timer must not kill the driver — and counts them in
// Health().PanicsRecovered; the handler adds visibility (logging,
// metrics). A panic inside the handler itself is swallowed.
func WithPanicHandler(fn func(recovered any)) RuntimeOption {
	return func(c *runtimeConfig) { c.panicHandler = fn }
}

// WithCallbackBudget arms the slow-callback watchdog: any expiry action
// running longer than d (measured against the runtime's clock) is
// counted in Health().SlowCallbacks. Zero disables the watchdog (the
// default).
func WithCallbackBudget(d time.Duration) RuntimeOption {
	return func(c *runtimeConfig) { c.budget = d }
}

// WithSlowCallbackHandler installs fn to observe each budget overrun
// with the callback's measured duration. Requires WithCallbackBudget. A
// panic inside the handler is swallowed.
func WithSlowCallbackHandler(fn func(elapsed time.Duration)) RuntimeOption {
	return func(c *runtimeConfig) { c.slowHandler = fn }
}

// WithMaxCatchUp caps how many ticks a single poll may advance the
// facility (default DefaultMaxCatchUp). When the wall clock gets further
// ahead than the cap — suspend/resume, NTP step, or a long scheduling
// stall — the runtime records an AnomalyForwardJump, advances at most
// the cap per wakeup, and reports the remainder in Health().TicksBehind
// while the drivers drain it across successive bounded bursts. ticks <=
// 0 removes the cap (every poll catches up fully, however large the
// jump).
func WithMaxCatchUp(ticks int) RuntimeOption {
	return func(c *runtimeConfig) { c.maxCatchUp = Tick(ticks) }
}

// Health returns a snapshot of the hardening counters. Safe to call
// concurrently with scheduling and expiry processing.
func (rt *Runtime) Health() Health {
	rt.mu.Lock()
	last := rt.lastAnomaly
	rt.mu.Unlock()
	return Health{
		PanicsRecovered:  rt.panics.Load(),
		SlowCallbacks:    rt.slow.Load(),
		Delivered:        rt.delivered.Load(),
		AbandonedOnClose: rt.abandoned.Load(),
		TicksBehind:      rt.behind.Load(),
		Anomalies:        rt.anomalies.Load(),
		LastAnomaly:      last,
	}
}

// noteAnomaly records a clock anomaly; callers hold rt.mu. With the
// flight recorder armed the anomaly is traced and — when a sink is
// configured — triggers an automatic dump, capturing the lifecycle
// events leading up to the clock misbehaviour.
func (rt *Runtime) noteAnomaly(a Anomaly) {
	rt.anomalies.Add(1)
	rt.lastAnomaly = a
	if rt.trace != nil {
		rt.traceRecord(TraceAnomaly, 0, rt.fac.Now(), 0, a.Ticks)
		rt.trace.autoDump()
	}
}

// deliver runs one expired timer's action on the delivering goroutine.
// An After timer's channel send is non-blocking by construction. A
// journal-only timer has no action: its delivery is its journal fire.
// The expiry is counted delivered once its action has run, and a
// delivery of a tagged timer is appended to fires, the poll's batch,
// which deliver returns.
func (rt *Runtime) deliver(f firing, fires []Fire) []Fire {
	t := f.t
	// Firing lag: how far past its deadline the timer is being
	// delivered, in whole ticks of the facility's clock. Early fires
	// (DrainFireNow) clamp to zero. lastTick is the post-advance
	// virtual time, maintained by Poll, so no lock or clock read is
	// needed here.
	lag := rt.lastTick.Load() - int64(f.when)
	if lag < 0 {
		lag = 0
	}
	rt.lagHist.Record(lag * rt.granNS)
	rt.traceRecord(TraceFired, f.id, Tick(rt.lastTick.Load()), f.when, lag)
	switch {
	case t.ch != nil:
		select {
		case t.ch <- rt.now():
		default: // buffered cap 1; a second send can't happen, but stay non-blocking
		}
	case t.fn != nil:
		rt.runCallback(f)
	}
	rt.delivered.Add(1)
	fires = rt.appendFire(fires, f, lag)
	if t.ch != nil {
		// After timers are runtime-internal — no caller ever holds the
		// *Timer — so the object recycles immediately.
		rt.recycleTimer(t)
	}
	return fires
}

// runCallback executes one expiry action under the recovery barrier and
// the slow-callback watchdog, recording its duration in the
// callback-duration histogram (two clock reads per action — the
// telemetry layer's only steady-state cost beyond atomic increments).
func (rt *Runtime) runCallback(f firing) {
	start := rt.now()
	defer func() {
		elapsed := rt.now().Sub(start)
		rt.durHist.Record(elapsed.Nanoseconds())
		if rt.budget > 0 && elapsed > rt.budget {
			rt.slow.Add(1)
			if rt.slowHandler != nil {
				elapsed := elapsed
				safeHook(func() { rt.slowHandler(elapsed) })
			}
		}
		if r := recover(); r != nil {
			rt.panics.Add(1)
			if rt.trace != nil {
				rt.traceRecord(TracePanic, f.id, Tick(rt.lastTick.Load()), f.when, 0)
				rt.trace.autoDump()
			}
			if rt.panicHandler != nil {
				safeHook(func() { rt.panicHandler(r) })
			}
		}
	}()
	f.t.fn()
}

// safeHook runs a user-supplied hardening hook, swallowing any panic so
// a hook cannot reintroduce the failure it exists to observe.
func safeHook(fn func()) {
	defer func() { _ = recover() }()
	fn()
}
