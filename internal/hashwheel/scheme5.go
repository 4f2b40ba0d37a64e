package hashwheel

import (
	"timingwheels/internal/core"
	"timingwheels/internal/ilist"
	"timingwheels/internal/metrics"
)

// Scheme5 is the hash table with sorted lists in each bucket
// (section 6.1.1): each bucket is maintained exactly as a miniature
// Scheme 2 ordered queue, so PER_TICK_BOOKKEEPING inspects only the
// bucket head while START_TIMER pays an insertion-sort step.
//
//	START_TIMER            O(1) average iff n < TableSize and the hash
//	                       distributes uniformly; O(n) worst case
//	STOP_TIMER             O(1)
//	PER_TICK_BOOKKEEPING   O(1) average and worst case, except when
//	                       multiple timers expire at once
//
// In sorting terms, Scheme 5 is a bucket sort on the low-order bits
// followed by an insertion sort within each bucket. The paper's verdict
// (section 7): it "depends too much on the hash distribution to be
// generally useful" — experiment E5 reproduces that sensitivity.
//
// Entries store the absolute expiry time (the COMPARE option of
// section 3.1), which keeps bucket order meaningful across revolutions.
type Scheme5 struct {
	table
	// SearchSteps / Starts mirror Scheme2's instrumentation: elements
	// examined per insertion, for the E5 average-latency measurement.
	SearchSteps uint64
	Starts      uint64
}

// NewScheme5 returns a sorted-bucket hashed wheel with the given table
// size, charging costs to cost (may be nil).
func NewScheme5(size int, cost *metrics.Cost) *Scheme5 {
	s := &Scheme5{table: newTable(size, cost)}
	s.place = s.sortIn
	return s
}

// Name returns "scheme5".
func (s *Scheme5) Name() string { return "scheme5" }

// sortIn hashes the expiry into a slot and walks that bucket to the
// sorted position (ascending expiry, FIFO on ties).
func (s *Scheme5) sortIn(e *core.Entry) {
	i := s.index(e.When)
	bucket := &s.slots[i]
	s.cost.Read(1)
	steps := uint64(0)
	inserted := false
	for n := bucket.Front(); n != nil; n = n.Next() {
		steps++
		s.cost.Read(1)
		s.cost.Compare(1)
		if n.Value.When > e.When {
			bucket.InsertBefore(&e.Node, n)
			inserted = true
			break
		}
	}
	if !inserted {
		bucket.PushBack(&e.Node)
	}
	s.occ.Set(i)
	s.SearchSteps += steps
	s.Starts++
}

// Tick advances the cursor and, as in Scheme 2, inspects only the head of
// the bucket's sorted list, firing heads while they are due.
func (s *Scheme5) Tick() int {
	slot := s.advance()
	fired := 0
	for {
		head := slot.Front()
		if head == nil {
			return fired
		}
		s.cost.Read(1)
		s.cost.Compare(1)
		e := head.Value
		if e.When > s.now {
			return fired
		}
		slot.Remove(head)
		if slot.Empty() {
			s.occ.Clear(s.cursor)
		}
		s.n--
		e.Collect()
		if e.Fire() {
			fired++
		}
	}
}

// AverageSearch reports the mean number of elements examined per
// StartTimer call since construction.
func (s *Scheme5) AverageSearch() float64 {
	if s.Starts == 0 {
		return 0
	}
	return float64(s.SearchSteps) / float64(s.Starts)
}

// CheckInvariants verifies that every bucket is sorted by expiry and
// structurally sound.
func (s *Scheme5) CheckInvariants() bool {
	for i := range s.slots {
		if !s.slots[i].CheckInvariants() {
			return false
		}
		prev := core.Tick(-1 << 62)
		ok := true
		s.slots[i].Do(func(n *ilist.Node[*core.Entry]) {
			if n.Value.When < prev {
				ok = false
			}
			prev = n.Value.When
		})
		if !ok {
			return false
		}
	}
	return true
}

var (
	_ core.EntryScheme = (*Scheme5)(nil)
	_ core.Resetter    = (*Scheme5)(nil)
)
