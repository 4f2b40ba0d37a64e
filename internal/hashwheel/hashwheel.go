// Package hashwheel implements Extension 1 of the paper (section 6.1):
// hashing arbitrary-sized timer intervals into a fixed-size timing wheel.
//
// The interval is divided by the table size: the remainder (low-order
// bits) added to the current-time pointer yields the slot index, and the
// quotient (high-order bits) is stored with the timer as a revolution
// count. Two bucket disciplines follow:
//
//   - Scheme 5 keeps each bucket sorted (like a miniature Scheme 2
//     queue): PER_TICK_BOOKKEEPING inspects only the bucket head, but
//     START_TIMER is O(n) worst case and O(1) average only if
//     n < TableSize and the hash spreads timers evenly.
//   - Scheme 6 keeps buckets unsorted: START_TIMER and STOP_TIMER are
//     O(1) worst case, and PER_TICK_BOOKKEEPING does n/TableSize work on
//     average regardless of the hash distribution — the hash controls
//     only the burstiness (variance) of the per-tick latency.
//
// Section 6.1.2 argues the hash should just be the remainder after
// dividing by a power of two (an AND instruction); this package supports
// any table size but uses the mask fast path when the size is a power of
// two (the mask-vs-mod ablation benchmark quantifies the difference).
package hashwheel

import (
	"fmt"

	"timingwheels/internal/bitmap"
	"timingwheels/internal/core"
	"timingwheels/internal/ilist"
	"timingwheels/internal/metrics"
)

// table is the shared slot array, index math, and entry lifecycle of
// Schemes 5 and 6. Entries (core.Entry) are caller-owned; each variant
// supplies only its placement rule.
type table struct {
	slots []ilist.List[*core.Entry]
	// occ tracks non-empty slots so Advance can skip idle spans (an
	// occupancy-bitmap extension the kernel descendants of this scheme
	// use; see package bitmap).
	occ    *bitmap.Set
	mask   int // len(slots)-1 if power of two, else -1
	cursor int
	now    core.Tick
	nextID core.ID
	n      int
	cost   *metrics.Cost
	batch  []*core.Entry
	// place links an armed entry into the slot for its expiry: the
	// variant's rule (Scheme 5 sorts it into the bucket, Scheme 6 stores
	// its revolution count in Aux and pushes it).
	place func(e *core.Entry)
}

func newTable(size int, cost *metrics.Cost) table {
	if size < 1 {
		panic(fmt.Sprintf("hashwheel: table size must be >= 1, got %d", size))
	}
	t := table{slots: make([]ilist.List[*core.Entry], size), occ: bitmap.New(size), mask: -1, cost: cost}
	if size&(size-1) == 0 {
		t.mask = size - 1
	}
	for i := range t.slots {
		t.slots[i].Init(cost)
	}
	return t
}

// index reduces an absolute tick to a slot index — the AND instruction of
// section 6.1.2 when the table size is a power of two.
func (t *table) index(when core.Tick) int {
	if t.mask >= 0 {
		return int(uint64(when) & uint64(t.mask))
	}
	i := int(when % core.Tick(len(t.slots)))
	if i < 0 {
		i += len(t.slots)
	}
	return i
}

// advance moves the cursor one slot and returns the slot to inspect.
func (t *table) advance() *ilist.List[*core.Entry] {
	t.now++
	t.cursor++
	if t.cursor == len(t.slots) {
		t.cursor = 0
	}
	t.cost.Read(1)    // load slot header
	t.cost.Compare(1) // zero test
	return &t.slots[t.cursor]
}

// pushSlot inserts e at the head of slot i and marks it occupied.
func (t *table) pushSlot(i int, e *core.Entry) {
	t.slots[i].PushFront(&e.Node)
	t.occ.Set(i)
}

// StartTimer implements core.Facility: one entry, placed by the
// variant's rule.
func (t *table) StartTimer(interval core.Tick, cb core.Callback) (core.Handle, error) {
	return core.StartTimer(t, interval, cb)
}

// StopTimer unlinks the timer from its bucket in O(1).
func (t *table) StopTimer(h core.Handle) error { return core.StopTimer(t, h) }

// ResetTimer implements core.Resetter in place.
func (t *table) ResetTimer(h core.Handle, interval core.Tick) error {
	return core.ResetTimer(t, h, interval)
}

// StartEntry implements core.EntryOps.
func (t *table) StartEntry(e *core.Entry, interval core.Tick) error {
	if interval < 1 {
		return core.ErrNonPositiveInterval
	}
	e.Arm(t.nextID, t.now+interval)
	t.nextID++
	t.place(e)
	t.n++
	return nil
}

// StopEntry implements core.EntryOps: O(1) unlink from the bucket.
func (t *table) StopEntry(e *core.Entry) error {
	placed, err := e.Stop()
	if placed {
		t.unlink(e)
	}
	return err
}

// ResetEntry implements core.EntryOps: unlink, re-place, relink.
func (t *table) ResetEntry(e *core.Entry, interval core.Tick) error {
	if interval < 1 {
		return core.ErrNonPositiveInterval
	}
	placed, err := e.BeginReset()
	if err != nil {
		return err
	}
	if placed {
		t.unlink(e)
	}
	e.When = t.now + interval
	t.place(e)
	t.n++
	return nil
}

// unlink removes a placed entry from its slot, clearing the occupancy
// bit when the slot empties.
func (t *table) unlink(e *core.Entry) {
	i := t.index(e.When)
	t.slots[i].Remove(&e.Node)
	if t.slots[i].Empty() {
		t.occ.Clear(i)
	}
	t.n--
}

// fireBatch runs the tick's collected entries.
func (t *table) fireBatch() int {
	fired := core.FireBatch(t.batch)
	clear(t.batch)
	t.batch = t.batch[:0]
	return fired
}

// jumpTo moves the clock and cursor directly to time tk; every slot in
// between is known empty.
func (t *table) jumpTo(tk core.Tick) {
	delta := tk - t.now
	if delta <= 0 {
		return
	}
	t.now = tk
	t.cursor = int((core.Tick(t.cursor) + delta) % core.Tick(len(t.slots)))
	t.cost.Read(1) // one bitmap probe stands in for the skipped scan
}

// nextOccupiedVisit reports the next time the cursor will land on a
// non-empty slot; ok is false when the table is empty.
func (t *table) nextOccupiedVisit() (core.Tick, bool) {
	if t.n == 0 {
		return 0, false
	}
	start := t.cursor + 1
	if start == len(t.slots) {
		start = 0
	}
	d, ok := t.occ.NextCyclic(start)
	if !ok {
		return 0, false
	}
	return t.now + core.Tick(d) + 1, true
}

// Size reports the number of slots (the TableSize of sections 6.1 and 7).
func (t *table) Size() int { return len(t.slots) }

// Now reports the current virtual time.
func (t *table) Now() core.Tick { return t.now }

// Len reports the number of outstanding timers.
func (t *table) Len() int { return t.n }

// Occupancy returns the number of timers in each slot, for hash-spread
// diagnostics in experiment E5.
func (t *table) Occupancy() []int {
	occ := make([]int, len(t.slots))
	for i := range t.slots {
		occ[i] = t.slots[i].Len()
	}
	return occ
}

// Cursor reports the slot index the current-time pointer points at.
func (t *table) Cursor() int { return t.cursor }

// BucketRounds returns the stored high-order bits (revolution counts) of
// the timers in slot i, in list order — the quantities Figure 9 shows
// hanging off each hash bucket.
func (t *table) BucketRounds(i int) []int64 {
	var out []int64
	t.slots[i].Do(func(n *ilist.Node[*core.Entry]) {
		out = append(out, n.Value.Aux)
	})
	return out
}
