package hybrid

import (
	"timingwheels/internal/core"
	"timingwheels/internal/metrics"
)

// overflowHeap is a binary min-heap of entries ordered by expiry (ties
// by ID), each entry's Aux holding its index plus one so removal needs
// no search. It charges costs as pq.Heap does.
type overflowHeap struct {
	items []*core.Entry
	cost  *metrics.Cost
}

func (h *overflowHeap) len() int { return len(h.items) }

// min returns the earliest entry without removing it, or nil.
func (h *overflowHeap) min() *core.Entry {
	if len(h.items) == 0 {
		return nil
	}
	h.cost.Read(1)
	return h.items[0]
}

// push adds e in O(log n).
func (h *overflowHeap) push(e *core.Entry) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	e.Aux = int64(i) + 1
	h.cost.Write(1)
	h.siftUp(i)
}

// remove deletes the entry at index i in O(log n) and marks it out of
// the heap (Aux zero).
func (h *overflowHeap) remove(i int) {
	n := len(h.items) - 1
	e := h.items[i]
	if i != n {
		h.swap(i, n)
	}
	h.items[n] = nil
	h.items = h.items[:n]
	h.cost.Write(1)
	e.Aux = 0
	if i < n && !h.siftDown(i) {
		h.siftUp(i)
	}
}

func (h *overflowHeap) less(i, j int) bool {
	h.cost.Compare(1)
	a, b := h.items[i], h.items[j]
	if a.When != b.When {
		return a.When < b.When
	}
	return a.ID() < b.ID()
}

func (h *overflowHeap) swap(i, j int) {
	h.cost.Write(2)
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].Aux = int64(i) + 1
	h.items[j].Aux = int64(j) + 1
}

func (h *overflowHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// siftDown reports whether the element moved.
func (h *overflowHeap) siftDown(i int) bool {
	moved := false
	for n := len(h.items); ; {
		least := 2*i + 1
		if least >= n {
			return moved
		}
		if right := least + 1; right < n && h.less(right, least) {
			least = right
		}
		if !h.less(least, i) {
			return moved
		}
		h.swap(i, least)
		i = least
		moved = true
	}
}

// checkInvariants verifies the heap order and the index back-pointers.
func (h *overflowHeap) checkInvariants() bool {
	for i, e := range h.items {
		if e.Aux != int64(i)+1 {
			return false
		}
		if p := (i - 1) / 2; i > 0 {
			q := h.items[p]
			if e.When < q.When || (e.When == q.When && e.ID() < q.ID()) {
				return false
			}
		}
	}
	return true
}
