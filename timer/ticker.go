package timer

import (
	"sync"
	"time"
)

// Ticker runs a function periodically on a Runtime — the rate-control
// workload of the paper's introduction, where "timers almost always
// expire". Firings are scheduled against an absolute deadline chain
// (next = previous deadline + period), so neither the action's running
// time nor the round-up-to-tick error accumulates: over N periods the
// Nth firing stays within one tick of N*period after the start. An
// action that overruns one or more full periods skips them — keeping
// the original phase — so slow actions self-throttle instead of
// building a backlog.
type Ticker struct {
	rt     *Runtime
	fn     func()
	period time.Duration
	opts   []ScheduleOption // applied to every firing (e.g. WithTag)

	mu      sync.Mutex
	pending *Timer
	next    time.Time // absolute deadline of the pending firing
	stopped bool
	runs    uint64
}

// Every schedules fn to run every period (rounded up to whole ticks; a
// non-positive period is clamped to one tick). Stop the returned Ticker
// to cease. Options (e.g. WithTag) apply to every firing.
func (rt *Runtime) Every(period time.Duration, fn func(), opts ...ScheduleOption) (*Ticker, error) {
	if fn == nil {
		return nil, ErrNilCallback
	}
	if period <= 0 {
		period = rt.Granularity()
	}
	tk := &Ticker{rt: rt, fn: fn, period: period, opts: opts}
	tk.next = rt.now().Add(period)
	if err := tk.arm(tk.next); err != nil {
		return nil, err
	}
	return tk, nil
}

// arm schedules the firing at the absolute deadline.
func (tk *Ticker) arm(deadline time.Time) error {
	// TicksFor rounds up and clamps to one tick, so a deadline that has
	// already passed (catch-up in progress) fires on the next tick.
	t, err := tk.rt.AfterFunc(deadline.Sub(tk.rt.now()), tk.fire, tk.opts...)
	if err != nil {
		return err
	}
	tk.mu.Lock()
	if tk.stopped {
		tk.mu.Unlock()
		t.Stop()
		return nil
	}
	tk.pending = t
	tk.mu.Unlock()
	return nil
}

// fire runs the action, then advances the deadline chain and rearms
// unless stopped.
func (tk *Ticker) fire() {
	tk.mu.Lock()
	if tk.stopped {
		tk.mu.Unlock()
		return
	}
	tk.pending = nil
	tk.runs++
	tk.mu.Unlock()
	tk.fn()
	tk.mu.Lock()
	if tk.stopped {
		tk.mu.Unlock()
		return
	}
	next := tk.next.Add(tk.period)
	// Overrun: the following deadline already passed while the action
	// ran (or the runtime fell behind). Skip the missed periods in one
	// step, preserving phase, rather than firing them back to back.
	if now := tk.rt.now(); !next.After(now) {
		missed := now.Sub(tk.next) / tk.period
		next = tk.next.Add((missed + 1) * tk.period)
	}
	tk.next = next
	tk.mu.Unlock()
	// A closed runtime makes this a no-op.
	_ = tk.arm(next)
}

// Stop cancels future firings. An action already running completes.
func (tk *Ticker) Stop() {
	tk.mu.Lock()
	tk.stopped = true
	p := tk.pending
	tk.pending = nil
	tk.mu.Unlock()
	if p != nil {
		p.Stop()
	}
}

// Runs reports the number of completed firings.
func (tk *Ticker) Runs() uint64 {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.runs
}
