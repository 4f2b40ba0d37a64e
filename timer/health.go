package timer

import (
	"fmt"
	"time"

	"timingwheels/internal/overload"
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

// ClassHealth is the per-priority-class slice of the overload counters.
type ClassHealth struct {
	// Delivered counts expiry actions of this class that ran to
	// completion (plus After sends performed).
	Delivered uint64
	// Shed counts expiry actions of this class definitively dropped
	// under overload (after exhausting retries, if configured).
	Shed uint64
	// Retried counts shed-retry re-arms consumed by this class (only
	// PriorityNormal retries; see WithShedRetry).
	Retried uint64
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
	// ShedExpiries counts expiry actions dropped because the async
	// dispatch queue was full (0 unless WithAsyncDispatch is set),
	// summed across priority classes; ByClass has the split.
	ShedExpiries uint64
	// Delivered counts expiry actions that actually ran to completion
	// (including ones that panicked and were recovered) plus After sends
	// performed, summed across priority classes. Stats' expired =
	// Delivered + ShedExpiries.
	Delivered uint64
	// Retried counts shed expiry actions re-armed for another attempt
	// (0 unless WithShedRetry is set), summed across classes.
	Retried uint64
	// AbandonedOnClose counts timers that were still outstanding when
	// Close (or a Drain policy) cancelled them: they never fired and
	// never will. With it, started == Delivered + ShedExpiries + stopped
	// + Outstanding() + AbandonedOnClose always balances.
	AbandonedOnClose uint64
	// Dispatched counts expiry actions handed to the async worker pool.
	Dispatched uint64
	// TicksBehind is how many wall ticks the facility still has to catch
	// up after the last poll; nonzero means a catch-up episode (clock
	// jump or sustained overload) is in progress.
	TicksBehind int64
	// Anomalies counts clock anomalies observed since construction.
	Anomalies uint64
	// LastAnomaly is the most recent anomaly (Kind == AnomalyNone if
	// there has never been one).
	LastAnomaly Anomaly
	// ByClass splits Delivered/Shed/Retried per priority class, indexed
	// by Priority (ByClass[PriorityCritical] etc.).
	ByClass [numPriorities]ClassHealth
}

// String summarizes the snapshot.
func (h Health) String() string {
	return fmt.Sprintf(
		"panics=%d slow=%d shed=%d delivered=%d retried=%d abandoned=%d dispatched=%d behind=%d anomalies=%d last=%s",
		h.PanicsRecovered, h.SlowCallbacks, h.ShedExpiries, h.Delivered,
		h.Retried, h.AbandonedOnClose, h.Dispatched, h.TicksBehind,
		h.Anomalies, h.LastAnomaly.Kind)
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

// WithAsyncDispatch moves expiry actions off the driver goroutine onto a
// bounded pool of workers behind a class-aware queue of the given total
// capacity (clamped to >= 1). The driver never blocks on a slow
// callback; when the queue is full the overload policy decides what is
// dropped: the lowest-priority, farthest-past-deadline waiting action is
// evicted first (see WithPriority), PriorityCritical actions fall back
// to inline delivery rather than shed, and shed PriorityNormal actions
// can retry with backoff (WithShedRetry). Drops are counted in
// Health().ShedExpiries, split per class in Health().ByClass.
//
// Trade-offs: actions may run concurrently with each other and complete
// out of deadline order across workers; an action must not call Close
// (Close drains the pool and would wait on the caller's own worker).
// Each Runtime owns its pool, so NewSharded with this option starts one
// pool per shard. Close runs already-queued actions to completion.
func WithAsyncDispatch(workers, queue int) RuntimeOption {
	return func(c *runtimeConfig) {
		if workers < 1 {
			workers = 1
		}
		c.asyncWorkers, c.asyncQueue = workers, queue
	}
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
	h := Health{
		PanicsRecovered:  rt.panics.Load(),
		SlowCallbacks:    rt.slow.Load(),
		AbandonedOnClose: rt.abandoned.Load(),
		Dispatched:       rt.dispatched.Load(),
		TicksBehind:      rt.behind.Load(),
		Anomalies:        rt.anomalies.Load(),
		LastAnomaly:      last,
	}
	for i := range h.ByClass {
		c := ClassHealth{
			Delivered: rt.deliveredC[i].Load(),
			Shed:      rt.shedC[i].Load(),
			Retried:   rt.retriedC[i].Load(),
		}
		h.ByClass[i] = c
		h.Delivered += c.Delivered
		h.ShedExpiries += c.Shed
		h.Retried += c.Retried
	}
	return h
}

// noteAnomaly records a clock anomaly; callers hold rt.mu. With the
// flight recorder armed the anomaly is traced and — when a sink is
// configured — triggers an automatic dump, capturing the lifecycle
// events leading up to the clock misbehaviour.
func (rt *Runtime) noteAnomaly(a Anomaly) {
	rt.anomalies.Add(1)
	rt.lastAnomaly = a
	if rt.trace != nil {
		rt.traceRecord(TraceAnomaly, 0, PriorityNormal, rt.fac.Now(), 0, a.Ticks)
		rt.trace.autoDump()
	}
}

// deliver routes one expired timer's action. After-channel sends run
// inline on the driver goroutine even under async dispatch: they are
// non-blocking by construction, so shedding them would only strand the
// receiver. Callback timers run inline, or go to the worker pool under
// the overload policy; the expiry is counted (per-class delivered) when
// the action has actually run, not when it was queued.
func (rt *Runtime) deliver(t *Timer) {
	// Firing lag: how far past its deadline the timer is being
	// delivered, in whole ticks of the facility's clock. Early fires
	// (DrainFireNow) clamp to zero. lastTick is the post-advance
	// virtual time, maintained by Poll, so no lock or clock read is
	// needed here.
	lag := rt.lastTick.Load() - int64(t.deadline)
	if lag < 0 {
		lag = 0
	}
	rt.lagHist.Record(lag * rt.granNS)
	rt.traceRecord(TraceFired, t.ID(), t.prio, Tick(rt.lastTick.Load()), t.deadline, lag)
	if t.ch != nil {
		select {
		case t.ch <- rt.now():
		default: // buffered cap 1; a second send can't happen, but stay non-blocking
		}
		rt.deliveredC[t.prio].Add(1)
		rt.journalFired(t)
		// After timers are runtime-internal — no caller ever holds the
		// *Timer — so the object recycles immediately.
		if rt.ing != nil {
			rt.recycleIngressTimer(t)
		} else {
			rt.recycleTimer(t)
		}
		return
	}
	if rt.pool == nil {
		rt.runCallback(t)
		rt.deliveredC[t.prio].Add(1)
		rt.journalFired(t)
		return
	}
	t.enqNS = rt.now().UnixNano()
	// The pool carries the *Timer itself and runs rt.runAsync on it: no
	// per-dispatch closure. The Timer is NOT recycled after an async run
	// (the caller may still Reset it), matching the inline path. A full
	// queue sheds by class: the weakest, most-overdue waiting action is
	// evicted before the newcomer, and the evicted victim (or the
	// refused newcomer) goes through shedOrRetry.
	admitted, victim, _, evicted := rt.pool.Submit(t, t.prio.class(), int64(t.deadline))
	if admitted {
		rt.dispatched.Add(1)
	}
	if evicted {
		rt.shedOrRetry(victim)
	}
	if !admitted {
		if t.prio == PriorityCritical {
			// Critical is never shed: deliver inline on the driver, the
			// same guarantee After-channel sends have.
			rt.runCallback(t)
			rt.deliveredC[t.prio].Add(1)
			rt.journalFired(t)
			return
		}
		rt.shedOrRetry(t)
	}
}

// shedOrRetry disposes of one overloaded expiry action: Normal-class
// actions with retry budget left are re-armed through the facility
// itself with exponential tick-granular backoff; everything else is
// definitively shed, counted per class, and reported to the shed
// handler. Runs only on the driver goroutine.
func (rt *Runtime) shedOrRetry(t *Timer) {
	if t.prio == PriorityNormal && rt.retryBudget > 0 && int(t.retries) < rt.retryBudget {
		if rt.rearmForRetry(t) {
			rt.retriedC[t.prio].Add(1)
			return
		}
	}
	rt.shedC[t.prio].Add(1)
	rt.journalShed(t)
	shedLag := rt.lastTick.Load() - int64(t.deadline)
	if shedLag < 0 {
		shedLag = 0
	}
	rt.traceRecord(TraceShed, t.ID(), t.prio, Tick(rt.lastTick.Load()), t.deadline, shedLag)
	if rt.shedHandler != nil {
		info := ShedInfo{ID: t.ID(), Priority: t.prio, Deadline: t.deadline, Retries: int(t.retries)}
		safeHook(func() { rt.shedHandler(info) })
	}
}

// rearmForRetry schedules the shed timer's next attempt through the
// facility — the retry timer is an ordinary wheel entry — backing off by
// retryBackoff << attempts ticks. It reports false when the runtime is
// draining or closed (the retry is then a final shed).
func (rt *Runtime) rearmForRetry(t *Timer) bool {
	shift := t.retries
	if shift > 16 {
		shift = 16 // cap the backoff growth well below Tick overflow
	}
	backoff := rt.retryBackoff << shift
	if backoff < 1 {
		backoff = 1
	}
	t.retries++
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// A pending entry means the caller re-armed the timer with Reset
	// after it fired: that arm stands, and this expiry is a final shed.
	if rt.closed || rt.draining || t.ent.Pending() {
		return false
	}
	if rt.ops.StartEntry(&t.ent, backoff) != nil {
		return false
	}
	t.deadline = rt.fac.Now() + backoff
	rt.traceRecord(TraceRetried, t.ID(), t.prio, rt.fac.Now(), t.deadline, 0)
	rt.wakeFor(int64(t.deadline))
	return true
}

// runAsync is the dispatch pool's fixed runner: one expired callback
// timer per invocation, counted as delivered once it has run. The
// queue-wait histogram records how long the expiry sat behind other
// work before a worker picked it up.
func (rt *Runtime) runAsync(t *Timer, _ overload.Class) {
	rt.waitHist.Record(rt.now().UnixNano() - t.enqNS)
	rt.runCallback(t)
	rt.deliveredC[t.prio].Add(1)
	rt.journalFired(t)
}

// runCallback executes one expiry action under the recovery barrier and
// the slow-callback watchdog, recording its duration in the
// callback-duration histogram (two clock reads per action — the
// telemetry layer's only steady-state cost beyond atomic increments).
func (rt *Runtime) runCallback(t *Timer) {
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
				rt.traceRecord(TracePanic, t.ID(), t.prio, Tick(rt.lastTick.Load()), t.deadline, 0)
				rt.trace.autoDump()
			}
			if rt.panicHandler != nil {
				safeHook(func() { rt.panicHandler(r) })
			}
		}
	}()
	t.fn()
}

// safeHook runs a user-supplied hardening hook, swallowing any panic so
// a hook cannot reintroduce the failure it exists to observe.
func safeHook(fn func()) {
	defer func() { _ = recover() }()
	fn()
}
