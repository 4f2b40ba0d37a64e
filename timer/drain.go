package timer

import (
	"context"
	"errors"
	"fmt"

	"timingwheels/clock"
	"timingwheels/internal/core"
)

// ErrDraining reports a scheduling operation on a Runtime whose Drain is
// in progress: the runtime no longer admits new timers, but outstanding
// ones are still being fired or cancelled per the drain policy.
var ErrDraining = errors.New("timer: runtime is draining")

// DrainPolicy selects what Drain does with the timers outstanding when
// it begins.
type DrainPolicy uint8

// Drain policies.
const (
	// DrainCancelAll cancels every outstanding timer without firing it —
	// the zero-grace policy Close uses. Cancelled timers are counted in
	// Health().AbandonedOnClose.
	DrainCancelAll DrainPolicy = iota
	// DrainFireNow fires every outstanding timer immediately, in
	// deadline order, regardless of how far away its deadline is. The
	// ctx caps the work: timers not yet fired when ctx is done are
	// cancelled.
	DrainFireNow
	// DrainWaitUntilDeadline keeps the clock running and fires each
	// timer at its natural deadline, until every timer has fired or ctx
	// is done (the grace window); the rest are then cancelled. A ctx
	// with no deadline or cancellation waits indefinitely.
	DrainWaitUntilDeadline
)

// String returns the policy name.
func (p DrainPolicy) String() string {
	switch p {
	case DrainCancelAll:
		return "cancel-all"
	case DrainFireNow:
		return "fire-now"
	case DrainWaitUntilDeadline:
		return "wait-until-deadline"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// DrainReport accounts for every timer that was outstanding when Drain
// began: each one either fired (Fired), was cancelled by the policy or
// the ctx cut-off (Cancelled), or was stopped concurrently by its owner.
type DrainReport struct {
	// Policy is the policy the drain ran under.
	Policy DrainPolicy
	// Fired counts expiry actions that ran (or After sends delivered)
	// during the drain.
	Fired uint64
	// Cancelled counts timers cancelled without firing when the drain
	// finished. They are also counted in Health().AbandonedOnClose.
	Cancelled uint64
}

// String summarizes the report.
func (r DrainReport) String() string {
	return fmt.Sprintf("drain(%s): fired=%d cancelled=%d",
		r.Policy, r.Fired, r.Cancelled)
}

// fireNowChunk bounds one locked advance burst during DrainFireNow so
// the ctx cut-off is honored even with deadlines far in the future on a
// scheme that cannot report its next expiry.
const fireNowChunk = 1 << 16

// Drain shuts the runtime down gracefully: it immediately stops
// admitting new timers (scheduling calls fail with ErrDraining, then
// ErrRuntimeClosed once the drain completes), disposes of every
// outstanding timer per the policy, and reports exactly what happened. After Drain
// returns the runtime is closed; Close after Drain is a no-op.
//
// Only one Drain wins: concurrent Drain and Close calls block until the
// first drain finishes, then report ErrDraining (or ErrRuntimeClosed if
// the runtime was already closed when they were made). Like Close, Drain
// must not be called from inside an expiry action.
func (rt *Runtime) Drain(ctx context.Context, policy DrainPolicy) (DrainReport, error) {
	rt.mu.Lock()
	if rt.doneClosing != nil {
		// Somebody else is (or finished) shutting down; wait it out so
		// every Drain/Close call blocks until the runtime is fully
		// stopped, then report why this call did no work.
		alreadyClosed := rt.closed
		done := rt.doneClosing
		rt.mu.Unlock()
		<-done
		if alreadyClosed {
			return DrainReport{}, ErrRuntimeClosed
		}
		return DrainReport{}, ErrDraining
	}
	done := make(chan struct{})
	rt.doneClosing = done
	rt.draining = true
	rt.mu.Unlock()
	defer close(done)

	// Take over the driving: stop the background goroutine (ticking or
	// tickless; a manual driver has none) so the drain owns Poll.
	close(rt.stopCh)
	<-rt.doneCh

	firedBefore := rt.delivered.Load()
	switch policy {
	case DrainFireNow:
		rt.drainFireNow(ctx)
	case DrainWaitUntilDeadline:
		rt.drainWait(ctx)
	}

	// Whatever the policy left in the facility is cancelled: accounted,
	// never fired.
	rt.mu.Lock()
	cancelled := uint64(rt.fac.Len())
	rt.abandoned.Add(cancelled)
	rt.closed = true
	rt.mu.Unlock()
	return DrainReport{
		Policy:    policy,
		Fired:     rt.delivered.Load() - firedBefore,
		Cancelled: cancelled,
	}, nil
}

// drainFireNow advances virtual time until the facility is empty or ctx
// is done, delivering every expiry on the way — timers fire early but in
// deadline order. Schemes that report their next expiry are skipped
// straight to it; the rest advance in bounded chunks.
func (rt *Runtime) drainFireNow(ctx context.Context) {
	for ctx.Err() == nil {
		rt.mu.Lock()
		if rt.fac.Len() == 0 {
			rt.mu.Unlock()
			return
		}
		step := Tick(fireNowChunk)
		if ne, ok := rt.fac.(nextExpirer); ok {
			if when, ok := ne.NextExpiry(); ok {
				if d := when - rt.fac.Now(); d > step {
					// Jump toward the next deadline, but bound the burst
					// spent under the lock so ctx stays responsive on
					// schemes that advance tick by tick.
					step = d
					if step > fireNowChunk<<6 {
						step = fireNowChunk << 6
					}
				}
			}
		}
		core.AdvanceBy(rt.fac, step)
		// Keep the telemetry tick mirror fresh: fire-now deliveries are
		// early by construction, and a stale mirror would misreport
		// their (clamped-to-zero) firing lag.
		rt.lastTick.Store(int64(rt.fac.Now()))
		rt.lastWall.Store(rt.now().UnixNano())
		fired := rt.fired
		rt.fired = rt.takeBuf()
		rt.mu.Unlock()
		rt.deliverAll(fired)
	}
}

// drainWait polls at the runtime's natural cadence until every
// outstanding timer has fired at its own deadline, or ctx is done; a
// final poll at the cut-off delivers anything already due, so a timer
// whose deadline falls within the grace window always fires.
func (rt *Runtime) drainWait(ctx context.Context) {
	granularity := rt.wall.Granularity()
	// One poll timer reused across iterations (the old per-iteration
	// time.After allocated a timer per spin and — worse — ignored the
	// injected clock, so Drain under a fake clock blocked on real time).
	var poll clock.Timer
	defer func() {
		if poll != nil {
			poll.Stop()
		}
	}()
	for {
		rt.Poll()
		rt.mu.Lock()
		outstanding := rt.fac.Len()
		rt.mu.Unlock()
		if outstanding == 0 && rt.behind.Load() == 0 {
			return
		}
		if rt.behind.Load() > 0 {
			continue // mid catch-up: keep polling without sleeping
		}
		if poll == nil {
			poll = rt.clk.NewTimer(granularity)
		} else {
			if !poll.Stop() {
				select {
				case <-poll.C():
				default:
				}
			}
			poll.Reset(granularity)
		}
		select {
		case <-ctx.Done():
			rt.Poll() // final sweep at the cut-off
			return
		case <-poll.C():
		}
	}
}
