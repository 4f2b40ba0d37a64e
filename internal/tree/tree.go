// Package tree implements Scheme 3 of the paper ("tree-based
// algorithms", section 4.1.1): a timer facility backed by a priority
// queue of absolute expiry times. START_TIMER drops from Scheme 2's O(n)
// to O(log n); PER_TICK_BOOKKEEPING compares the clock against the
// smallest element only.
//
// The queue implementation is pluggable across the structures the paper
// lumps into Scheme 3 — binary heap, leftist tree, skew heap, and the
// unbalanced binary search tree whose degeneration on equal intervals
// the paper warns about.
package tree

import (
	"timingwheels/internal/core"
	"timingwheels/internal/metrics"
	"timingwheels/internal/pq"
)

// entry is one outstanding Scheme 3 timer.
type entry struct {
	id     core.ID
	when   core.Tick
	cb     core.Callback
	state  core.State
	owner  *Scheme3
	handle pq.Handle
}

// TimerID implements core.Handle.
func (e *entry) TimerID() core.ID { return e.id }

// Scheme3 is a priority-queue timer facility.
//
//	START_TIMER            O(log n) (O(n) for a degenerated BST)
//	STOP_TIMER             O(log n) via the stored queue handle
//	PER_TICK_BOOKKEEPING   O(1) when no timer expires
type Scheme3 struct {
	queue  pq.Queue[*entry]
	now    core.Tick
	nextID core.ID
	n      int
}

// Kind selects the priority-queue implementation for NewScheme3.
type Kind string

// The priority-queue implementations available for Scheme 3.
const (
	KindHeap    Kind = "heap"
	KindLeftist Kind = "leftist"
	KindSkew    Kind = "skew"
	KindBST     Kind = "bst"
	KindAVL     Kind = "avl"
	KindPairing Kind = "pairing"
)

// NewScheme3 returns an empty tree-based facility using the given
// priority-queue implementation, charging costs to cost (may be nil).
// Unknown kinds fall back to the binary heap.
func NewScheme3(kind Kind, cost *metrics.Cost) *Scheme3 {
	var q pq.Queue[*entry]
	switch kind {
	case KindLeftist:
		q = pq.NewLeftist[*entry](cost)
	case KindSkew:
		q = pq.NewSkew[*entry](cost)
	case KindBST:
		q = pq.NewBST[*entry](cost)
	case KindAVL:
		q = pq.NewAVL[*entry](cost)
	case KindPairing:
		q = pq.NewPairing[*entry](cost)
	default:
		q = pq.NewHeap[*entry](cost)
	}
	return &Scheme3{queue: q}
}

// Name returns "scheme3-<queue>".
func (s *Scheme3) Name() string { return "scheme3-" + s.queue.Name() }

// Now reports the current virtual time.
func (s *Scheme3) Now() core.Tick { return s.now }

// Len reports the number of outstanding timers.
func (s *Scheme3) Len() int { return s.n }

// StartTimer inserts the timer's absolute expiry into the queue.
func (s *Scheme3) StartTimer(interval core.Tick, cb core.Callback) (core.Handle, error) {
	if err := core.CheckInterval(interval, cb); err != nil {
		return nil, err
	}
	e := &entry{id: s.nextID, when: s.now + interval, cb: cb, owner: s, state: core.StatePending}
	s.nextID++
	e.handle = s.queue.Insert(int64(e.when), e)
	s.n++
	return e, nil
}

// StopTimer deletes the timer from the queue via its stored handle.
func (s *Scheme3) StopTimer(h core.Handle) error {
	e, ok := h.(*entry)
	if !ok || e.owner != s {
		return core.ErrForeignHandle
	}
	if e.state != core.StatePending {
		return core.ErrTimerNotPending
	}
	e.state = core.StateStopped
	s.queue.Remove(e.handle)
	s.n--
	return nil
}

// Tick advances the clock and pops every timer whose expiry has arrived.
func (s *Scheme3) Tick() int {
	s.now++
	fired := 0
	for {
		key, e, ok := s.queue.Min()
		if !ok || core.Tick(key) > s.now {
			return fired
		}
		s.queue.PopMin()
		s.n--
		if e.state != core.StatePending {
			continue
		}
		e.state = core.StateFired
		fired++
		e.cb(e.id)
	}
}

// NextExpiry reports the earliest outstanding expiry, for hosts with a
// single hardware timer. ok is false when no timers are outstanding.
func (s *Scheme3) NextExpiry() (core.Tick, bool) {
	key, _, ok := s.queue.Min()
	return core.Tick(key), ok
}

// Advance implements core.Advancer by jumping between expiries.
func (s *Scheme3) Advance(n core.Tick) int {
	fired := 0
	target := s.now + n
	for s.now < target {
		next, ok := s.NextExpiry()
		if !ok || next > target {
			s.now = target
			return fired
		}
		s.now = next - 1
		fired += s.Tick()
	}
	return fired
}

// CheckInvariants delegates to the underlying queue's structural checks.
func (s *Scheme3) CheckInvariants() bool { return s.queue.CheckInvariants() }

var (
	_ core.Facility = (*Scheme3)(nil)
	_ core.Advancer = (*Scheme3)(nil)
)
