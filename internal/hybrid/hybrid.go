// Package hybrid implements the combination sketched at the end of
// section 5 of the paper: "One solution is to implement timers within
// some range using this scheme [the Scheme 4 wheel] and the allowed
// memory. Timers greater than this value are implemented using, say,
// Scheme 2."
//
// Timers due within the wheel's range go straight into a Scheme 4
// bucket; longer timers wait in a min-heap keyed by absolute expiry (a
// Scheme 3 stand-in for the paper's Scheme 2 — same role, better
// asymptotics; the heap indexes the entries themselves, so a long timer
// costs no allocation beyond its entry) and migrate into the wheel once
// they come within range. PER_TICK_BOOKKEEPING pays the wheel's O(1) plus a single heap-min
// comparison; each long timer migrates exactly once.
//
//	START_TIMER            O(1) short, O(log k) long (k = long timers)
//	STOP_TIMER             O(1) short, O(log k) long
//	PER_TICK_BOOKKEEPING   O(1) + expiries + one-time migrations
package hybrid

import (
	"fmt"

	"timingwheels/internal/bitmap"
	"timingwheels/internal/core"
	"timingwheels/internal/ilist"
	"timingwheels/internal/metrics"
)

// Scheme is the hybrid wheel + overflow-heap facility. Entries
// (core.Entry) are caller-owned; an entry's Aux word is its position in
// the overflow heap plus one while it waits there, and zero in the
// wheel.
type Scheme struct {
	slots    []ilist.List[*core.Entry]
	occ      *bitmap.Set
	overflow overflowHeap
	cursor   int
	now      core.Tick
	nextID   core.ID
	n        int
	cost     *metrics.Cost
	batch    []*core.Entry

	// Migrations counts long timers moved from the overflow heap into
	// the wheel (each long timer migrates exactly once).
	Migrations uint64
}

// MigrationCount reports Migrations through the optional gauge interface
// the timer runtime's Snapshot probes for.
func (s *Scheme) MigrationCount() uint64 { return s.Migrations }

// New returns a hybrid facility whose wheel covers intervals up to
// size ticks; anything longer is parked in the overflow heap. Size must
// be at least 1.
func New(size int, cost *metrics.Cost) *Scheme {
	if size < 1 {
		panic(fmt.Sprintf("hybrid: size must be >= 1, got %d", size))
	}
	s := &Scheme{
		slots:    make([]ilist.List[*core.Entry], size),
		occ:      bitmap.New(size),
		overflow: overflowHeap{cost: cost},
		cost:     cost,
	}
	for i := range s.slots {
		s.slots[i].Init(cost)
	}
	return s
}

// Name returns "hybrid".
func (s *Scheme) Name() string { return "hybrid" }

// WheelRange reports the largest interval served directly by the wheel.
func (s *Scheme) WheelRange() core.Tick { return core.Tick(len(s.slots)) }

// Now reports the current virtual time.
func (s *Scheme) Now() core.Tick { return s.now }

// Len reports the number of outstanding timers (wheel + overflow).
func (s *Scheme) Len() int { return s.n }

// OverflowLen reports the number of timers parked beyond wheel range.
func (s *Scheme) OverflowLen() int { return s.overflow.len() }

// slotFor returns the wheel slot for an absolute expiry within range.
func (s *Scheme) slotFor(when core.Tick) int {
	return int(when % core.Tick(len(s.slots)))
}

// StartTimer places the timer in the wheel if it is due within
// WheelRange ticks, else in the overflow heap.
func (s *Scheme) StartTimer(interval core.Tick, cb core.Callback) (core.Handle, error) {
	return core.StartTimer(s, interval, cb)
}

// StopTimer cancels the timer wherever it currently lives.
func (s *Scheme) StopTimer(h core.Handle) error { return core.StopTimer(s, h) }

// ResetTimer implements core.Resetter in place.
func (s *Scheme) ResetTimer(h core.Handle, interval core.Tick) error {
	return core.ResetTimer(s, h, interval)
}

// StartEntry implements core.EntryOps.
func (s *Scheme) StartEntry(e *core.Entry, interval core.Tick) error {
	if interval < 1 {
		return core.ErrNonPositiveInterval
	}
	e.Arm(s.nextID, s.now+interval)
	s.nextID++
	s.place(e)
	return nil
}

// StopEntry implements core.EntryOps.
func (s *Scheme) StopEntry(e *core.Entry) error {
	placed, err := e.Stop()
	if placed {
		s.unlink(e)
	}
	return err
}

// ResetEntry implements core.EntryOps: unlink from the wheel or the
// heap, then place for the new expiry.
func (s *Scheme) ResetEntry(e *core.Entry, interval core.Tick) error {
	if interval < 1 {
		return core.ErrNonPositiveInterval
	}
	placed, err := e.BeginReset()
	if err != nil {
		return err
	}
	if placed {
		s.unlink(e)
	}
	e.When = s.now + interval
	s.place(e)
	return nil
}

// place puts a pending entry in the wheel if it is due within
// WheelRange ticks, else in the overflow heap.
func (s *Scheme) place(e *core.Entry) {
	s.cost.Compare(1) // range test
	if e.When-s.now <= core.Tick(len(s.slots)) {
		s.cost.Read(1)
		s.pushWheel(e)
	} else {
		s.overflow.push(e)
	}
	s.n++
}

// pushWheel links e into the wheel slot for its expiry.
func (s *Scheme) pushWheel(e *core.Entry) {
	e.Aux = 0
	slot := s.slotFor(e.When)
	s.slots[slot].PushFront(&e.Node)
	s.occ.Set(slot)
}

// unlink removes a placed entry from whichever structure holds it.
func (s *Scheme) unlink(e *core.Entry) {
	if e.Aux > 0 {
		s.overflow.remove(int(e.Aux - 1))
	} else {
		slot := s.slotFor(e.When)
		s.slots[slot].Remove(&e.Node)
		if s.slots[slot].Empty() {
			s.occ.Clear(slot)
		}
	}
	s.n--
}

// Tick advances the wheel cursor, fires the current slot, and then
// pulls any overflow timers that have come within wheel range into
// their slots. Firing happens first: a timer crossing the horizon at
// distance exactly WheelRange maps onto the cursor slot and must wait a
// full revolution, not fire a revolution early.
func (s *Scheme) Tick() int {
	s.now++
	s.cursor++
	if s.cursor == len(s.slots) {
		s.cursor = 0
	}

	// Fire the current slot (two-phase, as in Scheme 4).
	fired := 0
	slot := &s.slots[s.cursor]
	s.cost.Read(1)
	s.cost.Compare(1)
	if !slot.Empty() {
		for n := slot.TakeChain(); n != nil; {
			next := n.Unchain()
			n.Value.Collect()
			s.batch = append(s.batch, n.Value)
			s.n--
			n = next
		}
		s.occ.Clear(s.cursor)
		fired = core.FireBatch(s.batch)
		clear(s.batch)
		s.batch = s.batch[:0]
	}

	// Migrate: every long timer whose expiry now falls within one wheel
	// revolution gets its slot. One heap-min compare on quiet ticks;
	// each long timer migrates exactly once, at distance WheelRange.
	horizon := s.now + core.Tick(len(s.slots))
	for {
		e := s.overflow.min()
		s.cost.Compare(1)
		if e == nil || e.When > horizon {
			break
		}
		s.overflow.remove(0)
		s.Migrations++
		s.cost.Write(1)
		s.pushWheel(e)
	}
	return fired
}

// NextExpiry reports the earliest outstanding expiry: the next occupied
// wheel slot if any (always sooner than anything still parked in the
// overflow heap, whose entries are beyond wheel range), else the heap
// minimum. This makes the hybrid eligible for tickless hosting despite
// its unbounded interval range.
func (s *Scheme) NextExpiry() (core.Tick, bool) {
	if next, ok := s.nextWheelVisit(); ok {
		return next, true
	}
	if e := s.overflow.min(); e != nil {
		return e.When, true
	}
	return 0, false
}

// nextWheelVisit reports when the cursor next lands on an occupied slot.
func (s *Scheme) nextWheelVisit() (core.Tick, bool) {
	if !s.occ.Any() {
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

// Advance implements core.Advancer: idle spans are skipped, but the
// clock never jumps past a migration point (heap minimum minus the
// wheel range), so long timers still enter the wheel one revolution
// before they fire.
func (s *Scheme) Advance(n core.Tick) int {
	fired := 0
	target := s.now + n
	for s.now < target {
		next, nextOK := s.nextWheelVisit()
		if e := s.overflow.min(); e != nil {
			// The heap minimum must be migrated at (when - WheelRange).
			migrate := e.When - core.Tick(len(s.slots))
			if !nextOK || migrate < next {
				next, nextOK = migrate, true
			}
		}
		if !nextOK || next > target {
			s.jumpTo(target)
			return fired
		}
		s.jumpTo(next - 1)
		fired += s.Tick()
	}
	return fired
}

// jumpTo moves the clock and cursor directly to time t across a span
// with no occupied slots and no migrations due.
func (s *Scheme) jumpTo(t core.Tick) {
	delta := t - s.now
	if delta <= 0 {
		return
	}
	s.now = t
	s.cursor = int((core.Tick(s.cursor) + delta) % core.Tick(len(s.slots)))
	s.cost.Read(1)
}

// CheckInvariants verifies structural soundness: heap order, wheel slot
// placement, and that every overflow timer is beyond wheel range... or
// exactly at the migration horizon awaiting the next tick.
func (s *Scheme) CheckInvariants() bool {
	if !s.overflow.checkInvariants() {
		return false
	}
	count := s.overflow.len()
	for i := range s.slots {
		if !s.slots[i].CheckInvariants() {
			return false
		}
		ok := true
		s.slots[i].Do(func(n *ilist.Node[*core.Entry]) {
			count++
			e := n.Value
			if e.When <= s.now || e.When > s.now+core.Tick(len(s.slots)) {
				ok = false
			}
			if s.slotFor(e.When) != i || e.Aux != 0 {
				ok = false
			}
		})
		if !ok {
			return false
		}
	}
	return count == s.n
}

var (
	_ core.EntryScheme = (*Scheme)(nil)
	_ core.Resetter    = (*Scheme)(nil)
	_ core.Advancer    = (*Scheme)(nil)
	_ core.NextExpirer = (*Scheme)(nil)
)
