package hashwheel

import (
	"timingwheels/internal/core"
	"timingwheels/internal/metrics"
)

// Scheme6 is the hash table with unsorted lists in each bucket
// (section 6.1.2) — the scheme the paper implemented in VAX MACRO-11 and
// recommends (with Scheme 7) for a general timer module.
//
//	START_TIMER            O(1) worst case
//	STOP_TIMER             O(1) worst case
//	PER_TICK_BOOKKEEPING   O(1) average when n < TableSize; every
//	                       TableSize ticks each living timer is
//	                       decremented once, so the average per-tick work
//	                       is n/TableSize regardless of hash spread.
type Scheme6 struct {
	table
}

// NewScheme6 returns an unsorted-bucket hashed wheel with the given table
// size, charging costs to cost (may be nil). Power-of-two sizes use the
// AND-mask index the paper recommends.
func NewScheme6(size int, cost *metrics.Cost) *Scheme6 {
	s := &Scheme6{table: newTable(size, cost)}
	s.place = s.hashIn
	return s
}

// Name returns "scheme6".
func (s *Scheme6) Name() string { return "scheme6" }

// roundsFor computes the stored quotient for an interval d: the number
// of cursor passes over the slot before the pass on which the timer
// fires. For d an exact multiple of the table size the slot equals the
// cursor position and the first pass happens a full revolution later,
// so the quotient is (d-1)/size rather than the naive d/size.
func (s *Scheme6) roundsFor(d core.Tick) int64 {
	return int64((d - 1) / core.Tick(s.Size()))
}

// hashIn hashes the expiry into a slot, stores the quotient in Aux, and
// pushes the timer at the head of that slot's unordered list: O(1)
// always.
func (s *Scheme6) hashIn(e *core.Entry) {
	e.Aux = s.roundsFor(e.When - s.now)
	s.cost.Read(1)  // slot header
	s.cost.Write(1) // store high-order bits
	s.pushSlot(s.index(e.When), e)
}

// Tick advances the cursor; if there is a list in the new slot, it
// decrements the high-order bits of every element exactly as in
// Scheme 1, firing those that reach zero.
func (s *Scheme6) Tick() int {
	slot := s.advance()
	if slot.Empty() {
		return 0
	}
	for n := slot.Front(); n != nil; {
		next := n.Next()
		e := n.Value
		s.cost.Read(1)
		s.cost.Compare(1)
		if e.Aux == 0 {
			slot.Remove(n)
			s.n--
			e.Collect()
			s.batch = append(s.batch, e)
		} else {
			s.cost.Write(1)
			e.Aux--
		}
		n = next
	}
	if slot.Empty() {
		s.occ.Clear(s.cursor)
	}
	return s.fireBatch()
}

// Advance implements core.Advancer: the cursor jumps between occupied
// slots (every occupied slot must still be visited once per revolution
// to decrement its residents' high-order bits, but empty slots cost one
// bitmap probe per run instead of one step each).
func (s *Scheme6) Advance(n core.Tick) int {
	fired := 0
	target := s.now + n
	for s.now < target {
		next, ok := s.nextOccupiedVisit()
		if !ok || next > target {
			s.jumpTo(target)
			return fired
		}
		s.jumpTo(next - 1)
		fired += s.Tick()
	}
	return fired
}

var (
	_ core.EntryScheme = (*Scheme6)(nil)
	_ core.Resetter    = (*Scheme6)(nil)
	_ core.Advancer    = (*Scheme6)(nil)
)

// Scheme6Absolute is the ablation variant of Scheme 6 that stores the
// absolute expiry time and COMPAREs instead of storing the quotient and
// DECREMENTing (the choice discussed at the end of section 3.1). Per-tick
// work touches the same entries but performs no writes to them, so it
// trades a wider stored field for fewer memory writes.
type Scheme6Absolute struct {
	table
}

// NewScheme6Absolute returns the COMPARE-variant hashed wheel.
func NewScheme6Absolute(size int, cost *metrics.Cost) *Scheme6Absolute {
	s := &Scheme6Absolute{table: newTable(size, cost)}
	s.place = s.hashIn
	return s
}

// Name returns "scheme6-abs".
func (s *Scheme6Absolute) Name() string { return "scheme6-abs" }

// hashIn hashes the absolute expiry into a slot in O(1).
func (s *Scheme6Absolute) hashIn(e *core.Entry) {
	s.cost.Read(1)
	s.cost.Write(1)
	s.pushSlot(s.index(e.When), e)
}

// Tick compares the absolute expiry of every element in the slot against
// the clock; no per-entry writes happen for surviving timers.
func (s *Scheme6Absolute) Tick() int {
	slot := s.advance()
	if slot.Empty() {
		return 0
	}
	for n := slot.Front(); n != nil; {
		next := n.Next()
		e := n.Value
		s.cost.Read(1)
		s.cost.Compare(1)
		if e.When <= s.now {
			slot.Remove(n)
			s.n--
			e.Collect()
			s.batch = append(s.batch, e)
		}
		n = next
	}
	if slot.Empty() {
		s.occ.Clear(s.cursor)
	}
	return s.fireBatch()
}

// Advance implements core.Advancer by skipping empty slots.
func (s *Scheme6Absolute) Advance(n core.Tick) int {
	fired := 0
	target := s.now + n
	for s.now < target {
		next, ok := s.nextOccupiedVisit()
		if !ok || next > target {
			s.jumpTo(target)
			return fired
		}
		s.jumpTo(next - 1)
		fired += s.Tick()
	}
	return fired
}

var (
	_ core.EntryScheme = (*Scheme6Absolute)(nil)
	_ core.Resetter    = (*Scheme6Absolute)(nil)
	_ core.Advancer    = (*Scheme6Absolute)(nil)
)
