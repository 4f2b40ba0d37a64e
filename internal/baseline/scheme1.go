// Package baseline implements the two "currently used timer schemes" of
// section 3 of the paper: Scheme 1 (straightforward per-tick decrement)
// and Scheme 2 (the ordered timer queue used by VMS and UNIX). They are
// the comparison points that motivate the timing-wheel schemes.
package baseline

import (
	"timingwheels/internal/core"
	"timingwheels/internal/ilist"
	"timingwheels/internal/metrics"
)

// s1entry is one outstanding Scheme 1 timer: a record holding the
// remaining interval, decremented on every tick.
type s1entry struct {
	id        core.ID
	remaining core.Tick
	cb        core.Callback
	state     core.State
	owner     *Scheme1
	node      ilist.Node[*s1entry]
}

// TimerID implements core.Handle.
func (e *s1entry) TimerID() core.ID { return e.id }

// Scheme1 is the straightforward algorithm (section 3.1): START_TIMER
// stores the interval in a record; PER_TICK_BOOKKEEPING decrements every
// outstanding record and fires those that reach zero.
//
//	START_TIMER            O(1)
//	STOP_TIMER             O(1)
//	PER_TICK_BOOKKEEPING   O(n)
//
// It uses one record per timer — the minimum space possible — and is
// appropriate when there are few outstanding timers or when per-tick
// processing is done by special-purpose hardware.
type Scheme1 struct {
	timers *ilist.List[*s1entry]
	now    core.Tick
	nextID core.ID
	cost   *metrics.Cost
	// expired is a reusable scratch buffer for the two-phase tick (collect
	// then fire) that makes expiry callbacks safely re-entrant.
	expired []*s1entry
}

// NewScheme1 returns an empty Scheme 1 facility charging abstract
// operation costs to cost (which may be nil).
func NewScheme1(cost *metrics.Cost) *Scheme1 {
	return &Scheme1{timers: ilist.New[*s1entry](cost), cost: cost}
}

// Name returns "scheme1".
func (s *Scheme1) Name() string { return "scheme1" }

// Now reports the current virtual time.
func (s *Scheme1) Now() core.Tick { return s.now }

// Len reports the number of outstanding timers.
func (s *Scheme1) Len() int { return s.timers.Len() }

// StartTimer records a timer with the given interval in O(1).
func (s *Scheme1) StartTimer(interval core.Tick, cb core.Callback) (core.Handle, error) {
	if err := core.CheckInterval(interval, cb); err != nil {
		return nil, err
	}
	e := &s1entry{id: s.nextID, remaining: interval, cb: cb, owner: s, state: core.StatePending}
	s.nextID++
	e.node.Value = e
	s.cost.Write(1) // store the interval
	s.timers.PushBack(&e.node)
	return e, nil
}

// StopTimer cancels the timer in O(1) via its handle.
func (s *Scheme1) StopTimer(h core.Handle) error {
	e, ok := h.(*s1entry)
	if !ok || e.owner != s {
		return core.ErrForeignHandle
	}
	if e.state != core.StatePending {
		return core.ErrTimerNotPending
	}
	e.state = core.StateStopped
	if e.node.Attached() {
		s.timers.Remove(&e.node)
	}
	return nil
}

// Tick decrements every outstanding timer and fires those that reach
// zero. Expiry callbacks run after the full decrement pass, so timers
// started from a callback are not decremented on the tick that started
// them.
func (s *Scheme1) Tick() int {
	s.now++
	s.expired = s.expired[:0]
	for n := s.timers.Front(); n != nil; {
		next := n.Next() // capture before a possible unlink
		e := n.Value
		// The DECREMENT and zero COMPARE of section 3.1.
		s.cost.Read(1)
		s.cost.Write(1)
		s.cost.Compare(1)
		e.remaining--
		if e.remaining <= 0 {
			s.timers.Remove(n)
			s.expired = append(s.expired, e)
		}
		n = next
	}
	fired := 0
	for _, e := range s.expired {
		if e.state != core.StatePending {
			continue // stopped by an earlier callback in this same tick
		}
		e.state = core.StateFired
		fired++
		e.cb(e.id)
	}
	return fired
}

var _ core.Facility = (*Scheme1)(nil)
