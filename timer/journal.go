package timer

// Journal observes lifecycle transitions of tagged timers — the hook a
// durability layer (cmd/twd's write-ahead log) hangs off so that
// logging composes with the batched-ingress admission path without a
// second lock acquisition per operation: every callback fires at the
// point the facility itself settles the transition, with whatever locks
// that point already holds, never an extra one.
//
// Only timers scheduled with WithTag (tag != 0) are journaled; the
// runtime's internal timers and untagged user timers cost a single nil
// check. The callbacks must be fast, must not block, and must not call
// back into the runtime (TimerArmed/TimerStopped run under the
// runtime's internal lock; TimerFired and TimerShed run on the driver
// or a dispatch worker with no runtime lock held, except for a staged
// admission refused by a bounded scheme, whose TimerShed runs under the
// lock).
//
// Timing guarantees, per tag:
//
//   - TimerArmed runs when the timer is armed in the facility, in
//     facility order — for every (re)arm, including Reset/ResetBatch.
//     On a WithIngress runtime that is at intent apply time, not at the
//     (earlier) staging call.
//   - TimerStopped runs when a cancellation settles. id is 0 when the
//     timer was stopped while still staged (it was never armed).
//   - TimerFired runs when the expiry action has actually run (or the
//     After send was delivered), with the delivery lag in nanoseconds.
//     A journal that also implements FireBatcher receives the fires a
//     poll delivers inline through TimersFired instead, one call per
//     poll; TimerFired then carries only fires run by an async dispatch
//     worker. Either way each fire is reported exactly once, after its
//     action ran.
//   - TimerShed runs when the expiry action is definitively dropped
//     under overload (after retries), or when a staged admission is
//     refused by a bounded scheme.
//
// Retry re-arms (WithShedRetry) are internal and not reported as
// TimerArmed; the action's eventual TimerFired or TimerShed is. Timers
// cancelled en masse by Close or a drain policy's cut-off are counted
// in DrainReport/Health, not journaled per timer — a write-ahead log
// deliberately keeps them outstanding so they replay on the next boot.
type Journal interface {
	TimerArmed(tag uint64, id ID, deadline Tick)
	TimerStopped(tag uint64, id ID)
	TimerFired(tag uint64, id ID, lagNS int64)
	TimerShed(tag uint64, id ID)
}

// Fire is one journaled delivery: the timer's tag and facility ID and
// how late it was delivered, in nanoseconds past its deadline tick.
type Fire struct {
	Tag   uint64
	ID    ID
	LagNS int64
}

// FireBatcher is an optional Journal extension that settles a poll's
// deliveries as one batch — paper §2 prices EXPIRY_PROCESSING per tick,
// and a durability layer can then take its own lock once per tick
// rather than once per fire.
//
// TimersFired runs once per poll (and once per DrainFireNow burst) that
// delivered tagged timers inline, on the goroutine that ran the poll,
// after every expiry action of the poll has run, and with no runtime
// lock held. fires lists the poll's tagged deliveries in delivery
// order. The slice is the runtime's reused buffer: it is valid only for
// the duration of the call and must not be retained.
type FireBatcher interface {
	TimersFired(fires []Fire)
}

// fireLoop adapts a Journal without TimersFired, so the runtime has one
// delivery path whatever the journal implements.
type fireLoop struct{ j Journal }

func (f fireLoop) TimersFired(fires []Fire) {
	for _, x := range fires {
		f.j.TimerFired(x.Tag, x.ID, x.LagNS)
	}
}

// batcherFor returns the fire sink for journal j: j itself when it
// batches, else a loop over its TimerFired. nil for a nil journal.
func batcherFor(j Journal) FireBatcher {
	if j == nil {
		return nil
	}
	if b, ok := j.(FireBatcher); ok {
		return b
	}
	return fireLoop{j}
}

// WithJournal installs the journal. One journal per runtime; pass the
// same value to every shard's options for a Sharded facility.
func WithJournal(j Journal) RuntimeOption {
	return func(c *runtimeConfig) { c.journal = j }
}

// WithTag attaches a caller identity to the timer — the key the
// Journal (and the timer's owner) correlates it by, typically a
// durable ID that, unlike the facility's ID, survives restarts. Tag 0
// means untagged: the timer is not journaled.
//
// A tagged timer may have a nil callback (AfterFunc, Schedule, or a Req
// with a nil Fn): it is a journal-only timer, whose delivery is its
// Journal fire alone. It runs nothing, so it skips the recovery barrier
// and the callback-duration histogram, and it is never handed to an
// async dispatch pool.
func WithTag(tag uint64) ScheduleOption {
	return ScheduleOption{tag: tag, hasTag: true}
}

// WithTag returns a copy of o that also carries the tag, so a batch
// Req's single Opt can hold both a priority and a tag:
//
//	Req{Fn: fn, After: d, Opt: WithPriority(PriorityCritical).WithTag(id)}
func (o ScheduleOption) WithTag(tag uint64) ScheduleOption {
	o.tag = tag
	o.hasTag = true
	return o
}

// apply copies the option's settings onto a timer being scheduled.
func (o ScheduleOption) apply(t *Timer) {
	if o.hasPrio {
		t.prio = o.prio
	}
	if o.hasTag {
		t.tag = o.tag
	}
}

// Tag reports the identity the timer was scheduled with (0 = untagged).
func (t *Timer) Tag() uint64 { return t.tag }

// journalArmed reports an arm for t if it is tagged. Caller holds
// rt.mu; the entry ID and t.deadline are set.
func (rt *Runtime) journalArmed(t *Timer) {
	if rt.journal != nil && t.tag != 0 {
		rt.journal.TimerArmed(t.tag, t.ID(), t.deadline)
	}
}

// journalStopped reports a settled cancellation for t if it is tagged.
func (rt *Runtime) journalStopped(t *Timer) {
	if rt.journal != nil && t.tag != 0 {
		rt.journal.TimerStopped(t.tag, t.ID())
	}
}

// journalFired reports a delivery an async dispatch worker completed
// for t if it is tagged, computing the lag the same way the telemetry
// layer does. Inline deliveries go through appendFire instead.
func (rt *Runtime) journalFired(t *Timer) {
	if rt.journal != nil && t.tag != 0 {
		lag := rt.lastTick.Load() - int64(t.deadline)
		if lag < 0 {
			lag = 0
		}
		rt.journal.TimerFired(t.tag, t.ID(), lag*rt.granNS)
	}
}

// appendFire adds t's delivery, lag ticks late, to the poll's batch if
// t is tagged. It reads t before the caller may recycle it.
func (rt *Runtime) appendFire(fires []Fire, t *Timer, lag int64) []Fire {
	if rt.batcher != nil && t.tag != 0 {
		fires = append(fires, Fire{Tag: t.tag, ID: t.ID(), LagNS: lag * rt.granNS})
	}
	return fires
}

// journalOnly reports whether a request with a nil callback is a
// journal-only timer: its options leave it a nonzero tag.
func journalOnly(opts ...ScheduleOption) bool {
	var tag uint64
	for _, o := range opts {
		if o.hasTag {
			tag = o.tag
		}
	}
	return tag != 0
}

// journalShed reports a definitive overload drop for t if it is tagged.
func (rt *Runtime) journalShed(t *Timer) {
	if rt.journal != nil && t.tag != 0 {
		rt.journal.TimerShed(t.tag, t.ID())
	}
}
