// Package wheel implements Scheme 4 of the paper (section 5): the basic
// timing wheel for timer intervals within a specified range.
//
// Unlike the logic-simulation wheels of section 4.2, which rotate once
// per cycle (or half-cycle) and push distant events onto an overflow
// list, this wheel "turns one array element every timer unit": the
// current-time pointer advances modulo MaxInterval on every tick, which
// guarantees that every timer within MaxInterval of the current time has
// a slot — no overflow list exists.
//
//	START_TIMER            O(1)
//	STOP_TIMER             O(1)
//	PER_TICK_BOOKKEEPING   O(1) + expiries
//
// In sorting terms this is a bucket sort that trades memory for
// processing (section 5); the crucial observation is that some entity
// must do O(1) work per tick to update the current time anyway, so
// stepping through an empty bucket costs only a few more instructions.
package wheel

import (
	"fmt"

	"timingwheels/internal/bitmap"
	"timingwheels/internal/core"
	"timingwheels/internal/ilist"
	"timingwheels/internal/metrics"
)

// entry is one outstanding Scheme 4 timer.
type entry struct {
	id    core.ID
	when  core.Tick
	cb    core.Callback
	state core.State
	owner *Scheme4
	node  ilist.Node[*entry]
}

// TimerID implements core.Handle.
func (e *entry) TimerID() core.ID { return e.id }

// Scheme4 is the basic timing wheel: a circular buffer of MaxInterval
// timer lists indexed by expiry time modulo MaxInterval.
type Scheme4 struct {
	slots []ilist.List[*entry]
	// occ tracks which slots are non-empty, enabling O(range/64)
	// NextExpiry and idle-span skipping (see package bitmap).
	occ    *bitmap.Set
	cursor int // index corresponding to the current time
	now    core.Tick
	nextID core.ID
	n      int
	cost   *metrics.Cost
	batch  []*entry // scratch for two-phase expiry
}

// NewScheme4 returns a timing wheel accepting intervals in
// [1, maxInterval]. A timer of exactly maxInterval ticks lands on the
// cursor slot and fires when the wheel completes one revolution.
// maxInterval must be at least 1.
func NewScheme4(maxInterval int, cost *metrics.Cost) *Scheme4 {
	if maxInterval < 1 {
		panic(fmt.Sprintf("wheel: maxInterval must be >= 1, got %d", maxInterval))
	}
	s := &Scheme4{
		slots: make([]ilist.List[*entry], maxInterval),
		occ:   bitmap.New(maxInterval),
		cost:  cost,
	}
	for i := range s.slots {
		s.slots[i].Init(cost)
	}
	return s
}

// Name returns "scheme4".
func (s *Scheme4) Name() string { return "scheme4" }

// MaxInterval reports the largest startable interval (the wheel size).
func (s *Scheme4) MaxInterval() core.Tick { return core.Tick(len(s.slots)) }

// Now reports the current virtual time.
func (s *Scheme4) Now() core.Tick { return s.now }

// Len reports the number of outstanding timers.
func (s *Scheme4) Len() int { return s.n }

// StartTimer indexes into element (cursor + interval) mod MaxInterval and
// puts the timer at the head of that slot's list, in O(1). Intervals
// beyond MaxInterval fail with ErrIntervalOutOfRange; section 5 suggests
// pairing the wheel with another scheme (or a hashed/hierarchical wheel)
// for those.
func (s *Scheme4) StartTimer(interval core.Tick, cb core.Callback) (core.Handle, error) {
	if err := core.CheckInterval(interval, cb); err != nil {
		return nil, err
	}
	if interval > core.Tick(len(s.slots)) {
		return nil, core.ErrIntervalOutOfRange
	}
	e := &entry{id: s.nextID, when: s.now + interval, cb: cb, owner: s, state: core.StatePending}
	s.nextID++
	e.node.Value = e
	slot := (s.cursor + int(interval)) % len(s.slots)
	s.cost.Read(1) // slot header
	s.slots[slot].PushFront(&e.node)
	s.occ.Set(slot)
	s.n++
	return e, nil
}

// StopTimer unlinks the timer from its slot in O(1).
func (s *Scheme4) StopTimer(h core.Handle) error {
	e, ok := h.(*entry)
	if !ok || e.owner != s {
		return core.ErrForeignHandle
	}
	if e.state != core.StatePending {
		return core.ErrTimerNotPending
	}
	e.state = core.StateStopped
	if e.node.Attached() {
		slot := int(e.when) % len(s.slots)
		s.slots[slot].Remove(&e.node)
		if s.slots[slot].Empty() {
			s.occ.Clear(slot)
		}
		s.n--
	}
	return nil
}

// Cursor reports the slot index the current-time pointer points at.
func (s *Scheme4) Cursor() int { return s.cursor }

// Occupancy reports the number of timers in each slot, for diagnostics
// and figure rendering.
func (s *Scheme4) Occupancy() []int {
	occ := make([]int, len(s.slots))
	for i := range s.slots {
		occ[i] = s.slots[i].Len()
	}
	return occ
}

// Tick increments the current-time pointer modulo MaxInterval and fires
// every timer in the slot now pointed to. If the element is empty "no
// more work is done on that timer tick".
func (s *Scheme4) Tick() int {
	s.now++
	s.cursor++
	if s.cursor == len(s.slots) {
		s.cursor = 0
	}
	slot := &s.slots[s.cursor]
	s.cost.Read(1)    // load slot header
	s.cost.Compare(1) // zero test
	if slot.Empty() {
		return 0
	}
	// Two-phase expiry: detach everything first, then run callbacks, so a
	// callback that starts a timer of exactly MaxInterval (landing back in
	// this same slot) is not fired a revolution early.
	s.batch = s.batch[:0]
	for n := slot.TakeChain(); n != nil; {
		next := n.Unchain()
		s.batch = append(s.batch, n.Value)
		s.n-- // detached entries no longer count as outstanding
		n = next
	}
	s.occ.Clear(s.cursor)
	fired := 0
	for _, e := range s.batch {
		if e.state != core.StatePending {
			continue // stopped by an earlier callback in this same batch
		}
		e.state = core.StateFired
		fired++
		e.cb(e.id)
	}
	return fired
}

// NextExpiry reports the earliest outstanding expiry by scanning the
// occupancy bitmap from the cursor — O(MaxInterval/64) worst case,
// usually one word. Every timer in a Scheme 4 wheel is within one
// revolution, so the next occupied slot IS the next expiry; this is what
// makes the bounded wheel eligible for tickless hosting.
func (s *Scheme4) NextExpiry() (core.Tick, bool) {
	if s.n == 0 {
		return 0, false
	}
	start := s.cursor + 1
	if start == len(s.slots) {
		start = 0
	}
	d, ok := s.occ.NextCyclic(start)
	if !ok {
		return 0, false
	}
	return s.now + core.Tick(d) + 1, true
}

// Advance implements core.Advancer: idle spans between occupied slots
// are skipped via the bitmap instead of stepped tick by tick.
func (s *Scheme4) Advance(n core.Tick) int {
	fired := 0
	target := s.now + n
	for s.now < target {
		next, ok := s.NextExpiry()
		if !ok || next > target {
			s.jumpTo(target)
			return fired
		}
		s.jumpTo(next - 1)
		fired += s.Tick()
	}
	return fired
}

// jumpTo moves the clock (and cursor) directly to time t; every slot in
// between is known empty.
func (s *Scheme4) jumpTo(t core.Tick) {
	delta := t - s.now
	if delta <= 0 {
		return
	}
	s.now = t
	s.cursor = int((core.Tick(s.cursor) + delta) % core.Tick(len(s.slots)))
	s.cost.Read(1) // one bitmap probe stands in for the skipped scan
}

var (
	_ core.Facility    = (*Scheme4)(nil)
	_ core.Advancer    = (*Scheme4)(nil)
	_ core.NextExpirer = (*Scheme4)(nil)
)
