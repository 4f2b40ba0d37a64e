package timer

import (
	"math"
	"time"
)

// WithIngress used to route admissions through a lock-free staging
// ring. Admission now always takes the runtime lock, once per call and
// once per batch (ScheduleBatch, StopBatch, ResetBatch), so the option
// does nothing.
//
// Deprecated: WithIngress is a no-op; use the batch APIs to amortize
// the lock.
func WithIngress(depth int) RuntimeOption {
	return func(*runtimeConfig) {}
}

// PriorityNormal was the default overload class of the retired priority
// layer. Its value is the class byte cmd/twd's write-ahead log records
// for an ordinary timer, so code that writes such records keeps it.
//
// Deprecated: the runtime has no priority classes.
const PriorityNormal = 1

// Req is one schedule request in a ScheduleBatch.
type Req struct {
	// After is the delay before Fn runs; it rounds up to a whole tick,
	// minimum one.
	After time.Duration
	// Fn is the expiry action. A nil Fn with a tag in Opt makes a
	// journal-only timer (see WithTag); an untagged nil Fn voids the
	// entry (its slot in the returned []*Timer is nil and ScheduleBatch
	// reports ErrNilCallback).
	Fn func()
	// Opt carries the timer's options (WithTag); the zero value means
	// none.
	Opt ScheduleOption
}

// ScheduleBatch schedules every request under one runtime lock
// acquisition. The batch's Timers come off the free list (carving slabs
// as needed) in one free-list acquisition before the lock is taken. The
// returned slice is parallel to reqs; a slot is nil when its request was
// refused (an untagged nil Fn, or an interval the scheme cannot store),
// and the first such refusal is reported as the error alongside the
// timers that did get scheduled. On a draining or closed runtime nothing
// is scheduled and the slice is nil.
func (rt *Runtime) ScheduleBatch(reqs []Req) ([]*Timer, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	timers := make([]*Timer, len(reqs))
	var firstErr error
	rt.freeMu.Lock()
	for i, q := range reqs {
		if q.Fn == nil && q.Opt.tag == 0 {
			if firstErr == nil {
				firstErr = ErrNilCallback
			}
			continue
		}
		t := rt.popTimerLocked()
		t.fn, t.ch, t.tag = q.Fn, nil, q.Opt.tag
		timers[i] = t
	}
	rt.freeMu.Unlock()
	wallTicks := rt.wall.TicksAt(rt.now())
	earliest := int64(math.MaxInt64)
	rt.mu.Lock()
	if rt.closed || rt.draining {
		err := ErrRuntimeClosed
		if !rt.closed {
			err = ErrDraining
		}
		rt.mu.Unlock()
		rt.recycleTimers(timers)
		return nil, err
	}
	var refused []*Timer
	for i, t := range timers {
		if t == nil {
			continue
		}
		ticks := rt.stretch(rt.wall.TicksFor(reqs[i].After), wallTicks)
		if err := rt.armLocked(t, Tick(ticks)); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			refused = append(refused, t)
			timers[i] = nil
			continue
		}
		rt.started++
		earliest = min(earliest, int64(t.ent.When))
	}
	rt.mu.Unlock()
	rt.recycleTimers(refused)
	rt.wakeFor(earliest)
	return timers, firstErr
}

// recycleTimers parks every non-nil Timer in ts on the free list under
// one free-list acquisition.
func (rt *Runtime) recycleTimers(ts []*Timer) {
	rt.freeMu.Lock()
	for _, t := range ts {
		if t != nil {
			t.fn, t.ch = nil, nil
			rt.free = append(rt.free, t)
		}
	}
	rt.freeMu.Unlock()
}

// StopBatch cancels every (non-nil) timer under one runtime lock
// acquisition and reports how many were cancelled before firing; the
// count is exact, as each Stop's result is. Timers belonging to a
// different runtime (a mixed batch) are stopped through their own
// runtime, one by one.
func (rt *Runtime) StopBatch(timers []*Timer) int {
	accepted := 0
	locked := false
	for _, t := range timers {
		if t == nil {
			continue
		}
		if t.rt != rt {
			if locked {
				rt.mu.Unlock()
				locked = false
			}
			if t.Stop() {
				accepted++
			}
			continue
		}
		if !locked {
			rt.mu.Lock()
			if rt.closed {
				rt.mu.Unlock()
				return accepted
			}
			locked = true
		}
		if rt.ops.StopEntry(&t.ent) == nil {
			rt.stopped++
			rt.traceRecord(TraceStopped, t.ID(), rt.fac.Now(), t.ent.When, 0)
			rt.journalStopped(t)
			rt.recycleTimer(t)
			accepted++
		}
	}
	if locked {
		rt.mu.Unlock()
	}
	return accepted
}

// ResetReq is one entry in a ResetBatch call.
type ResetReq struct {
	// T is the timer to re-arm; nil entries are skipped.
	T *Timer
	// After is the new delay; it rounds up to a whole tick, minimum one.
	After time.Duration
}

// ResetBatch re-arms every (non-nil) timer to fire After from now under
// one runtime lock acquisition — the retransmission-window idiom at
// batch scale (every packet in a send burst Resets its timeout) — and
// reports how many re-arms were accepted, exactly as Reset would for
// each. A re-arm the scheme refuses leaves its timer at its old deadline
// and is reported as the first error; timers from another runtime are
// reset through their own runtime one by one. On a draining or closed
// runtime the remaining resets are refused — the timers keep their
// current deadlines and the drain policy disposes of them.
func (rt *Runtime) ResetBatch(reqs []ResetReq) (int, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	wallTicks := rt.wall.TicksAt(rt.now())
	accepted := 0
	var firstErr error
	earliest := int64(math.MaxInt64)
	locked := false
	unlock := func() {
		if locked {
			rt.mu.Unlock()
			locked = false
		}
	}
	for _, q := range reqs {
		if q.T == nil {
			continue
		}
		if q.T.rt != rt {
			unlock()
			if _, err := q.T.Reset(q.After); err == nil {
				accepted++
			} else if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !locked {
			rt.mu.Lock()
			locked = true
			if rt.closed || rt.draining {
				err := ErrRuntimeClosed
				if !rt.closed {
					err = ErrDraining
				}
				rt.mu.Unlock()
				rt.wakeFor(earliest)
				return accepted, err
			}
		}
		ticks := rt.stretch(rt.wall.TicksFor(q.After), wallTicks)
		if _, err := rt.rearmLocked(q.T, Tick(ticks)); err != nil {
			// Refused, as a synchronous Reset would be: the timer keeps
			// its deadline.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		accepted++
		earliest = min(earliest, int64(q.T.ent.When))
	}
	unlock()
	rt.wakeFor(earliest)
	return accepted, firstErr
}

// ScheduleBatch schedules the whole batch on one shard (round-robin),
// so the batch pays one admission regardless of shard count and its
// timers fire in deadline order relative to each other. Spreading load
// across shards happens batch-by-batch, not request-by-request.
func (s *Sharded) ScheduleBatch(reqs []Req) ([]*Timer, error) {
	return s.pick().ScheduleBatch(reqs)
}

// StopBatch cancels every (non-nil) timer, forwarding each run of
// same-shard timers as one batch; a batch returned by ScheduleBatch is
// a single run. Reports how many cancellations were accepted.
func (s *Sharded) StopBatch(timers []*Timer) int {
	accepted := 0
	for i := 0; i < len(timers); {
		if timers[i] == nil {
			i++
			continue
		}
		rt := timers[i].rt
		j := i + 1
		for j < len(timers) && (timers[j] == nil || timers[j].rt == rt) {
			j++
		}
		accepted += rt.StopBatch(timers[i:j])
		i = j
	}
	return accepted
}

// ResetBatch re-arms every (non-nil) timer, forwarding each run of
// same-shard timers as one batch; a batch returned by ScheduleBatch is
// a single run. Reports how many re-arms were accepted and the first
// per-timer refusal.
func (s *Sharded) ResetBatch(reqs []ResetReq) (int, error) {
	accepted := 0
	var firstErr error
	for i := 0; i < len(reqs); {
		if reqs[i].T == nil {
			i++
			continue
		}
		rt := reqs[i].T.rt
		j := i + 1
		for j < len(reqs) && (reqs[j].T == nil || reqs[j].T.rt == rt) {
			j++
		}
		a, err := rt.ResetBatch(reqs[i:j])
		accepted += a
		if err != nil && firstErr == nil {
			firstErr = err
		}
		i = j
	}
	return accepted, firstErr
}
