package core

import "timingwheels/internal/ilist"

// Expirer is an entry's EXPIRY_PROCESSING action. The scheme invokes it
// from within Tick with the timer's ID, under the same rules as a
// Callback.
type Expirer interface {
	Expire(id ID)
}

// Expire implements Expirer, so a paper-API Callback rides in an Entry
// as is.
func (cb Callback) Expire(id ID) { cb(id) }

// Entry is one timer record as the production schemes (5, 6,
// 6-absolute, 7, hybrid, and the grouped sorting queue) hold it: the
// paper's element on a slot's list (section 6.1.2), with the links
// stored in the record itself so STOP_TIMER unlinks in O(1) (section
// 3.2).
//
// The caller owns the memory. A host that embeds an Entry in its own
// per-timer record — as the timer runtime does — holds each armed timer
// in one heap object, and re-arms the same Entry for every lifecycle;
// the scheme only links and unlinks it. The paper-API StartTimer
// allocates a fresh one per call.
//
// Each scheme keeps only its placement rule: which list When maps to,
// plus whatever it needs to find the entry again in Aux. Lifecycle
// bookkeeping — the never-reused ID, the state, and the firing batch —
// is shared here.
type Entry struct {
	// Node links the entry into one of its scheme's lists.
	Node ilist.Node[*Entry]
	// When is the absolute expiry tick (after any rounding the scheme
	// applies).
	When Tick
	// Aux is the scheme's private placement word: Scheme 6's revolution
	// count, Scheme 7's level, slot, and migrations, or the hybrid's
	// overflow-heap position.
	Aux int64

	id    ID
	exp   Expirer
	state State
	// due marks a pending entry the scheme has unlinked into the current
	// Tick's firing batch. A sibling callback may stop it (it then never
	// fires) or reset it (it is placed again and fires at the new
	// deadline instead).
	due bool
}

// ID reports the never-reused identity the scheme assigned at the
// entry's most recent arm (zero before the first).
func (e *Entry) ID() ID { return e.id }

// State reports the lifecycle state of the entry's most recent arm.
func (e *Entry) State() State { return e.state }

// Pending reports whether the entry is armed and has neither fired nor
// been stopped.
func (e *Entry) Pending() bool { return e.state == StatePending }

// SetExpirer sets the action the entry runs when it fires. It persists
// across arms.
func (e *Entry) SetExpirer(x Expirer) { e.exp = x }

// Arm begins a new lifecycle: the entry becomes pending with expiry
// when under the scheme-assigned id. Arming a pending entry is a
// programming error and panics: it would corrupt the list holding it.
func (e *Entry) Arm(id ID, when Tick) {
	if e.state == StatePending {
		panic("core: Arm on a pending entry")
	}
	e.Node.Value = e
	e.id, e.When, e.state, e.due = id, when, StatePending, false
}

// Collect marks a pending entry the scheme has just unlinked for this
// tick's firing batch (and stopped counting as outstanding).
func (e *Entry) Collect() { e.due = true }

// Fire runs a collected entry's expiry action, reporting whether it
// ran: an entry a sibling callback stopped or reset after collection
// does not fire.
func (e *Entry) Fire() bool {
	due := e.due
	e.due = false
	if !due || e.state != StatePending {
		return false
	}
	e.state = StateFired
	e.exp.Expire(e.id)
	return true
}

// Stop ends a pending entry's lifecycle. placed reports whether the
// entry is still linked, in which case the scheme must unlink it and
// count it out; a collected entry is already both. It fails with
// ErrTimerNotPending, changing nothing, if the entry is not pending.
func (e *Entry) Stop() (placed bool, err error) {
	if e.state != StatePending {
		return false, ErrTimerNotPending
	}
	placed = !e.due
	e.state, e.due = StateStopped, false
	return placed, nil
}

// BeginReset prepares a pending entry for an in-place reset. placed
// reports whether the scheme must unlink it (and count it out) before
// changing When and placing it again; a collected entry leaves the
// firing batch and is placed again with the same ID. It fails with
// ErrTimerNotPending, changing nothing, if the entry is not pending.
func (e *Entry) BeginReset() (placed bool, err error) {
	if e.state != StatePending {
		return false, ErrTimerNotPending
	}
	placed = !e.due
	e.due = false
	return placed, nil
}

// FireBatch runs Fire over a tick's collected entries in order and
// returns how many fired.
func FireBatch(batch []*Entry) int {
	fired := 0
	for _, e := range batch {
		if e.Fire() {
			fired++
		}
	}
	return fired
}

// EntryScheme is a facility that places caller-owned entries: the
// production schemes. StartEntry, StopEntry, and ResetEntry are the
// paper's START_TIMER and STOP_TIMER plus an in-place update (unlink,
// re-place, relink) on an Entry the caller keeps; the paper-API
// methods are thin wrappers over them (see StartTimer, StopTimer, and
// ResetTimer in this package).
type EntryScheme interface {
	Facility
	EntryOps
}

// EntryOps is the entry half of EntryScheme.
type EntryOps interface {
	// StartEntry arms e (which must not be pending) to expire after
	// interval ticks, assigning it a fresh never-reused ID. It fails with
	// ErrNonPositiveInterval or ErrIntervalOutOfRange, leaving e as it
	// was.
	StartEntry(e *Entry, interval Tick) error
	// StopEntry cancels a pending entry; ErrTimerNotPending otherwise.
	StopEntry(e *Entry) error
	// ResetEntry re-arms a pending entry in place to expire interval
	// ticks from now, keeping its ID; ErrTimerNotPending (and no change)
	// otherwise.
	ResetEntry(e *Entry, interval Tick) error
}

// handle is the entry one paper-API StartTimer call allocates: the
// Entry plus the scheme that issued it, for ErrForeignHandle.
type handle struct {
	Entry
	owner EntryOps
}

// TimerID implements Handle.
func (h *handle) TimerID() ID { return h.id }

// StartTimer implements Facility.StartTimer for an entry scheme: one
// allocation, the handle's entry, which fires cb.
func StartTimer(s EntryOps, interval Tick, cb Callback) (Handle, error) {
	if err := CheckInterval(interval, cb); err != nil {
		return nil, err
	}
	h := &handle{owner: s}
	h.exp = cb
	if err := s.StartEntry(&h.Entry, interval); err != nil {
		return nil, err
	}
	return h, nil
}

// StopTimer implements Facility.StopTimer for an entry scheme.
func StopTimer(s EntryOps, h Handle) error {
	e, err := entryOf(s, h)
	if err != nil {
		return err
	}
	return s.StopEntry(e)
}

// ResetTimer implements Resetter.ResetTimer for an entry scheme.
func ResetTimer(s EntryOps, h Handle, interval Tick) error {
	e, err := entryOf(s, h)
	if err != nil {
		return err
	}
	return s.ResetEntry(e, interval)
}

// entryOf resolves a paper-API handle s issued.
func entryOf(s EntryOps, h Handle) (*Entry, error) {
	hd, ok := h.(*handle)
	if !ok || hd.owner != s {
		return nil, ErrForeignHandle
	}
	return &hd.Entry, nil
}

// EntriesOf returns the entry operations for f: f itself for an entry
// scheme, otherwise an adapter over f's paper API (Schemes 1-4, the
// trees, and wrapping facilities). The adapter arms each entry with a
// capturing closure and keeps its handle in a map, so it allocates per
// arm; its ResetEntry starts the new arm before stopping the old one
// and keeps the entry's ID, so it has the same contract as the native
// in-place reset.
func EntriesOf(f Facility) EntryOps {
	if es, ok := f.(EntryScheme); ok {
		return es
	}
	return &closureOps{f: f, handles: make(map[*Entry]Handle)}
}

type closureOps struct {
	f       Facility
	handles map[*Entry]Handle
}

func (c *closureOps) start(e *Entry, interval Tick) (Handle, error) {
	return c.f.StartTimer(interval, func(ID) {
		delete(c.handles, e)
		e.Collect()
		e.Fire()
	})
}

func (c *closureOps) StartEntry(e *Entry, interval Tick) error {
	if e.Pending() {
		panic("core: StartEntry on a pending entry")
	}
	h, err := c.start(e, interval)
	if err != nil {
		return err
	}
	e.Arm(h.TimerID(), c.f.Now()+interval)
	c.handles[e] = h
	return nil
}

func (c *closureOps) StopEntry(e *Entry) error {
	h, ok := c.handles[e]
	if !ok {
		return ErrTimerNotPending
	}
	if err := c.f.StopTimer(h); err != nil {
		return err
	}
	delete(c.handles, e)
	_, err := e.Stop()
	return err
}

func (c *closureOps) ResetEntry(e *Entry, interval Tick) error {
	old, ok := c.handles[e]
	if !ok {
		return ErrTimerNotPending
	}
	h, err := c.start(e, interval)
	if err != nil {
		return err
	}
	if err := c.f.StopTimer(old); err != nil {
		panic("core: stopping a pending adapter timer failed: " + err.Error())
	}
	c.handles[e] = h
	e.When = c.f.Now() + interval
	return nil
}
