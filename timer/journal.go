package timer

// Journal observes lifecycle transitions of tagged timers — the hook a
// durability layer (cmd/twd's write-ahead log) hangs off without a
// second lock acquisition per operation: every callback fires at the
// point the facility itself settles the transition, with whatever locks
// that point already holds, never an extra one.
//
// Only timers scheduled with WithTag (tag != 0) are journaled; the
// runtime's internal timers and untagged user timers cost a single nil
// check. The callbacks must be fast, must not block, and must not call
// back into the runtime (they run under the runtime's internal lock).
//
// Timing guarantees, per tag:
//
//   - TimerArmed runs when the timer is armed in the facility, in
//     facility order — for every (re)arm, including Reset/ResetBatch.
//   - TimerStopped runs when a cancellation settles.
//
// Fires reach a journal only if it also implements FireBatcher: each
// fire is reported exactly once, through TimersFired, after its action
// ran.
//
// Timers cancelled en masse by Close or a drain policy's cut-off are
// counted in DrainReport/Health, not journaled per timer — a
// write-ahead log deliberately keeps them outstanding so they replay on
// the next boot.
type Journal interface {
	TimerArmed(tag uint64, id ID, deadline Tick)
	TimerStopped(tag uint64, id ID)
}

// Fire is one journaled delivery: the timer's tag and facility ID and
// how late it was delivered, in nanoseconds past its deadline tick.
type Fire struct {
	Tag   uint64
	ID    ID
	LagNS int64
}

// FireBatcher is the Journal extension that observes deliveries, a
// poll's worth at a time — paper §2 prices EXPIRY_PROCESSING per tick,
// and a durability layer can then take its own lock once per tick
// rather than once per fire.
//
// TimersFired runs once per poll (and once per DrainFireNow burst) that
// delivered tagged timers, on the goroutine that ran the poll,
// after every expiry action of the poll has run, and with no runtime
// lock held. fires lists the poll's tagged deliveries in delivery
// order. The slice is the runtime's reused buffer: it is valid only for
// the duration of the call and must not be retained.
type FireBatcher interface {
	TimersFired(fires []Fire)
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
// and the callback-duration histogram.
func WithTag(tag uint64) ScheduleOption {
	return ScheduleOption{tag: tag}
}

// ScheduleOption configures one schedule call (AfterFunc, Schedule,
// After, Every, or a batch Req). Options are plain values, not closures,
// so passing them on the hot path allocates nothing. The zero value
// sets nothing.
type ScheduleOption struct {
	tag uint64
}

// tagOf returns the tag opts leave a timer with: the last one set.
func tagOf(opts []ScheduleOption) uint64 {
	var tag uint64
	for _, o := range opts {
		tag = o.tag
	}
	return tag
}

// Tag reports the identity the timer was scheduled with (0 = untagged).
func (t *Timer) Tag() uint64 { return t.tag }

// journalArmed reports an arm for t if it is tagged. Caller holds
// rt.mu; the entry is armed.
func (rt *Runtime) journalArmed(t *Timer) {
	if rt.journal != nil && t.tag != 0 {
		rt.journal.TimerArmed(t.tag, t.ID(), t.ent.When)
	}
}

// journalStopped reports a settled cancellation for t if it is tagged.
func (rt *Runtime) journalStopped(t *Timer) {
	if rt.journal != nil && t.tag != 0 {
		rt.journal.TimerStopped(t.tag, t.ID())
	}
}

// appendFire adds f's delivery, lag ticks late, to the poll's batch if
// its timer is tagged. It reads the Timer before the caller may recycle
// it.
func (rt *Runtime) appendFire(fires []Fire, f firing, lag int64) []Fire {
	if rt.batcher != nil && f.t.tag != 0 {
		fires = append(fires, Fire{Tag: f.t.tag, ID: f.id, LagNS: lag * rt.granNS})
	}
	return fires
}
