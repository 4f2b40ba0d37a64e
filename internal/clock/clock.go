// Package clock provides tick sources for driving timer facilities: a
// manual virtual clock for simulation and tests, and a real-time adapter
// that converts wall-clock time into tick counts for the production
// runtime.
//
// In the paper's model (section 2) "the timer is often an external
// hardware clock" that invokes PER_TICK_BOOKKEEPING every T units. The
// virtual clock plays that role deterministically; the real-time adapter
// plays it against time.Time, including catch-up after scheduling delays
// (several hardware ticks may have elapsed between invocations).
package clock

import "time"

// Virtual is a manually advanced tick counter. The zero value starts at
// tick 0.
type Virtual struct {
	now int64
}

// Now reports the current tick.
func (v *Virtual) Now() int64 { return v.now }

// Advance moves the clock forward by n ticks (n >= 0) and returns the new
// time.
func (v *Virtual) Advance(n int64) int64 {
	if n < 0 {
		panic("clock: cannot advance backwards")
	}
	v.now += n
	return v.now
}

// Tick advances by one tick and returns the new time.
func (v *Virtual) Tick() int64 { return v.Advance(1) }

// Wall converts wall-clock time into a monotonically increasing tick
// count with a fixed granularity. It answers "how many whole ticks have
// elapsed since the epoch?", which the runtime uses to decide how many
// PER_TICK_BOOKKEEPING calls are due.
type Wall struct {
	epoch       time.Time
	granularity time.Duration
}

// NewWall returns a wall clock whose tick 0 begins at epoch and whose
// ticks are granularity long. Granularity must be positive.
func NewWall(epoch time.Time, granularity time.Duration) *Wall {
	if granularity <= 0 {
		panic("clock: granularity must be positive")
	}
	return &Wall{epoch: epoch, granularity: granularity}
}

// Granularity reports the tick length.
func (w *Wall) Granularity() time.Duration { return w.granularity }

// Epoch reports the time of tick 0.
func (w *Wall) Epoch() time.Time { return w.epoch }

// TicksAt reports how many whole ticks have elapsed at time t (0 if t is
// before the epoch).
func (w *Wall) TicksAt(t time.Time) int64 {
	d := t.Sub(w.epoch)
	if d < 0 {
		return 0
	}
	return int64(d / w.granularity)
}

// TimeOf reports the wall time at which the given tick begins.
func (w *Wall) TimeOf(tick int64) time.Time {
	return w.epoch.Add(time.Duration(tick) * w.granularity)
}

// MaxTicks caps TicksFor so tick arithmetic downstream (deadline =
// current tick + interval, interval stretching) cannot overflow int64
// even after the facility has run for years and the caller multiplies
// by small factors.
const MaxTicks = int64(1) << 61

// TicksFor converts a duration to a tick count, rounding up (a request of
// 1ns with 1ms granularity waits one full tick). The count runs from the
// start of the current tick, not from the instant of the request, so a
// timer armed part-way through a tick fires up to one granularity before
// now+d; rounding up keeps it from firing more than that early, at the
// cost of up to one granularity late on an on-time driver. The result
// is at least 1 and at most MaxTicks. The round-up is
// computed by division rather than as (d + granularity - 1) / granularity:
// the addition wraps negative for d near math.MaxInt64, which made a
// ~292-year timer fire on the next tick.
func (w *Wall) TicksFor(d time.Duration) int64 {
	if d <= 0 {
		return 1
	}
	n := int64(d / w.granularity)
	if d%w.granularity != 0 {
		n++ // cannot wrap: n <= MaxInt64/granularity < MaxInt64
	}
	if n < 1 {
		n = 1
	}
	if n > MaxTicks {
		n = MaxTicks
	}
	return n
}

// Guard watches the tick stream derived from a Wall for clock anomalies.
// A well-behaved wall clock yields a non-decreasing tick sequence; an
// NTP step backwards (or a fault-injected regression) breaks that, and
// the facility driver must notice rather than silently stall. Guard is
// not safe for concurrent use: the driver observes under its own lock.
type Guard struct {
	wall *Wall
	last int64
}

// NewGuard returns a Guard over w, starting at tick 0.
func NewGuard(w *Wall) *Guard { return &Guard{wall: w} }

// Observe converts t to a wall tick and compares it with the previous
// observation: target is the tick the facility should catch up to, and
// back is how many ticks the clock regressed since the last call (0 when
// time moved forward or held still). The regression becomes the new
// baseline, so one backward step is reported exactly once.
func (g *Guard) Observe(t time.Time) (target, back int64) {
	target = g.wall.TicksAt(t)
	if target < g.last {
		back = g.last - target
	}
	g.last = target
	return target, back
}
