package baseline

import (
	"timingwheels/internal/core"
	"timingwheels/internal/ilist"
	"timingwheels/internal/metrics"
)

// SearchDirection selects which end of the ordered list Scheme 2 searches
// from on insertion. Section 3.2: "For a negative exponential
// distribution we can reduce the average cost ... by searching the list
// from the rear"; if all timers have equal intervals, rear insertion is
// O(1).
type SearchDirection int

// Search directions for Scheme2.
const (
	// SearchFromFront walks from the earliest-expiring timer forward.
	SearchFromFront SearchDirection = iota
	// SearchFromRear walks from the latest-expiring timer backward.
	SearchFromRear
)

// String returns "front" or "rear".
func (d SearchDirection) String() string {
	if d == SearchFromRear {
		return "rear"
	}
	return "front"
}

// s2entry is one outstanding Scheme 2 timer holding its absolute expiry
// time (the COMPARE option of section 3.1 — Scheme 2 "will store the
// absolute time at which the timer expires, and not the interval").
type s2entry struct {
	id    core.ID
	when  core.Tick
	cb    core.Callback
	state core.State
	owner *Scheme2
	node  ilist.Node[*s2entry]
}

// TimerID implements core.Handle.
func (e *s2entry) TimerID() core.ID { return e.id }

// Scheme2 is the ordered list / timer queue (section 3.2), the algorithm
// "used by both VMS and UNIX". Timers are kept in a doubly-linked list
// sorted by absolute expiry time; the head is the next timer due.
//
//	START_TIMER            O(n) worst case (position search)
//	STOP_TIMER             O(1) (doubly linked + stored element pointer)
//	PER_TICK_BOOKKEEPING   O(1) except when timers expire
//
// Timers due at the same tick fire in FIFO order of their start calls.
type Scheme2 struct {
	queue     *ilist.List[*s2entry]
	direction SearchDirection
	now       core.Tick
	nextID    core.ID
	cost      *metrics.Cost

	// SearchSteps accumulates the number of elements examined across all
	// StartTimer calls; experiment E2 divides by the number of starts to
	// reproduce the section 3.2 average-insertion-cost results.
	SearchSteps uint64
	// Starts counts StartTimer calls that performed a search.
	Starts uint64
}

// NewScheme2 returns an empty ordered-list facility that searches for the
// insertion position from the given end.
func NewScheme2(direction SearchDirection, cost *metrics.Cost) *Scheme2 {
	return &Scheme2{queue: ilist.New[*s2entry](cost), direction: direction, cost: cost}
}

// Name returns "scheme2-front" or "scheme2-rear".
func (s *Scheme2) Name() string { return "scheme2-" + s.direction.String() }

// Now reports the current virtual time.
func (s *Scheme2) Now() core.Tick { return s.now }

// Len reports the number of outstanding timers.
func (s *Scheme2) Len() int { return s.queue.Len() }

// StartTimer inserts a timer at its sorted position, walking from the
// configured end of the queue.
func (s *Scheme2) StartTimer(interval core.Tick, cb core.Callback) (core.Handle, error) {
	if err := core.CheckInterval(interval, cb); err != nil {
		return nil, err
	}
	e := &s2entry{id: s.nextID, when: s.now + interval, cb: cb, owner: s, state: core.StatePending}
	s.nextID++
	e.node.Value = e
	s.insert(e)
	return e, nil
}

// insert finds the position preserving expiry order with FIFO ties and
// splices the entry in, recording the number of elements examined.
func (s *Scheme2) insert(e *s2entry) {
	steps := uint64(0)
	defer func() {
		s.SearchSteps += steps
		s.Starts++
	}()
	if s.direction == SearchFromFront {
		// Insert before the first element strictly later than e.
		for n := s.queue.Front(); n != nil; n = n.Next() {
			steps++
			s.cost.Read(1)
			s.cost.Compare(1)
			if n.Value.when > e.when {
				s.queue.InsertBefore(&e.node, n)
				return
			}
		}
		s.queue.PushBack(&e.node)
		return
	}
	// Rear search: insert after the last element with when <= e.when.
	for n := s.queue.Back(); n != nil; n = n.Prev() {
		steps++
		s.cost.Read(1)
		s.cost.Compare(1)
		if n.Value.when <= e.when {
			s.queue.InsertAfter(&e.node, n)
			return
		}
	}
	s.queue.PushFront(&e.node)
}

// StopTimer cancels the timer in O(1) via its stored element pointer.
func (s *Scheme2) StopTimer(h core.Handle) error {
	e, ok := h.(*s2entry)
	if !ok || e.owner != s {
		return core.ErrForeignHandle
	}
	if e.state != core.StatePending {
		return core.ErrTimerNotPending
	}
	e.state = core.StateStopped
	if e.node.Attached() {
		s.queue.Remove(&e.node)
	}
	return nil
}

// Tick increments the time of day and compares it with the head of the
// list, deleting and firing head elements while they are due (the
// "increment and compare" loop of section 3.2).
func (s *Scheme2) Tick() int {
	s.now++
	fired := 0
	for {
		head := s.queue.Front()
		s.cost.Read(1)
		s.cost.Compare(1)
		if head == nil || head.Value.when > s.now {
			return fired
		}
		e := head.Value
		s.queue.Remove(head)
		if e.state != core.StatePending {
			continue
		}
		e.state = core.StateFired
		fired++
		e.cb(e.id)
	}
}

// NextExpiry reports the head-of-queue expiry time, supporting the
// single-hardware-timer optimization the paper describes ("the hardware
// timer is set to expire at the time at which the timer at the head of
// the list is due"). ok is false when no timers are outstanding.
func (s *Scheme2) NextExpiry() (core.Tick, bool) {
	head := s.queue.Front()
	if head == nil {
		return 0, false
	}
	return head.Value.when, true
}

// Advance implements core.Advancer: with an ordered queue, skipping k
// empty ticks costs one comparison, which is exactly the property that
// lets Scheme 2 hosts sleep until the next hardware interrupt.
func (s *Scheme2) Advance(n core.Tick) int {
	fired := 0
	target := s.now + n
	for s.now < target {
		next, ok := s.NextExpiry()
		if !ok || next > target {
			s.now = target
			return fired
		}
		// Jump directly to the next expiry, then run a normal tick.
		s.now = next - 1
		fired += s.Tick()
	}
	return fired
}

// CheckInvariants verifies queue ordering and link integrity for the
// property tests.
func (s *Scheme2) CheckInvariants() bool {
	if !s.queue.CheckInvariants() {
		return false
	}
	prev := core.Tick(-1 << 62)
	ok := true
	s.queue.Do(func(n *ilist.Node[*s2entry]) {
		if n.Value.when < prev {
			ok = false
		}
		prev = n.Value.when
	})
	return ok
}

var (
	_ core.Facility = (*Scheme2)(nil)
	_ core.Advancer = (*Scheme2)(nil)
)
