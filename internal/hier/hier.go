// Package hier implements Scheme 7 of the paper (section 6.2): a
// hierarchical set of timing wheels of different granularities.
//
// To represent all timer values in a 2^32-tick range, a single Scheme 4
// wheel would need 2^32 slots; a hierarchy needs only a handful of small
// arrays — the paper's example covers 100 days with 100 + 24 + 60 + 60 =
// 244 slots instead of 8.64 million. A timer is inserted into the
// coarsest wheel whose slot width its interval exceeds, together with the
// remainder of its expiry time; when the coarse slot is reached, the
// timer migrates down to a finer wheel (EXPIRY_PROCESSING "will insert
// the remainder of the seconds in the minute array"), and so on until the
// finest wheel fires it exactly.
//
//	START_TIMER            O(m) to find the insertion level (m = levels)
//	STOP_TIMER             O(1) (doubly linked lists)
//	PER_TICK_BOOKKEEPING   O(1) average; each timer migrates at most
//	                       m-1 times over its lifetime
//
// The package also implements the precision/work trade-off attributed to
// Wick Nichols: MigrateNever rounds the timer to its insertion level's
// granularity and fires it there (up to 50% precision loss, zero
// migrations), and MigrateOnce allows a single migration to the next
// finer level before firing (bounded error, at most one migration).
package hier

import (
	"fmt"

	"timingwheels/internal/bitmap"
	"timingwheels/internal/core"
	"timingwheels/internal/ilist"
	"timingwheels/internal/metrics"
)

// Policy selects the timer-migration behaviour of section 6.2.
type Policy int

// Migration policies.
const (
	// MigrateAlways migrates timers level by level to the finest wheel:
	// exact expiry, up to m-1 migrations per timer.
	MigrateAlways Policy = iota
	// MigrateNever rounds the timer to the nearest slot of its insertion
	// level and fires it there without migrating: zero migrations, error
	// up to half the level's slot width.
	MigrateNever
	// MigrateOnce allows exactly one migration to the next finer level,
	// rounding there: at most one migration, error up to half the finer
	// level's slot width.
	MigrateOnce
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MigrateNever:
		return "never"
	case MigrateOnce:
		return "once"
	default:
		return "always"
	}
}

// An entry's Aux word locates it for occupancy-bit maintenance and
// counts its migrations: the slot in the low 32 bits, the level in the
// next 16, and the migrations above. Level and slot change on every
// migration.
const (
	auxLevelShift = 32
	auxMovesShift = 48
)

// where reports the level and slot holding e.
func where(e *core.Entry) (lvl, slot int) {
	return int(uint16(e.Aux >> auxLevelShift)), int(uint32(e.Aux))
}

// moves reports how many migrations e has performed.
func moves(e *core.Entry) int { return int(e.Aux >> auxMovesShift) }

// level is one wheel in the hierarchy.
type level struct {
	slots []ilist.List[*core.Entry]
	occ   *bitmap.Set // which slots are non-empty (idle-skip support)
	gran  core.Tick   // ticks per slot: product of radices below
	span  core.Tick   // ticks per revolution: gran * len(slots)
}

// Scheme7 is the hierarchical timing wheel facility.
type Scheme7 struct {
	levels []level
	policy Policy
	now    core.Tick
	nextID core.ID
	n      int
	cost   *metrics.Cost
	batch  []*core.Entry

	// Migrations counts timer moves between levels, the c(7)*m work term
	// of the section 6.2 cost comparison (experiments E7/E8).
	Migrations uint64
}

// MigrationCount reports Migrations through the optional gauge interface
// the timer runtime's Snapshot probes for.
func (s *Scheme7) MigrationCount() uint64 { return s.Migrations }

// DayRadices is the paper's worked example: a seconds wheel, a minutes
// wheel, an hours wheel, and a days wheel spanning 100 days in 244 slots.
var DayRadices = []int{60, 60, 24, 100}

// DefaultRadices spans 2^32 ticks in 512 slots across five levels
// (256 x 64 x 64 x 64 x 64).
var DefaultRadices = []int{256, 64, 64, 64, 64}

// NewScheme7 returns a hierarchical wheel with the given per-level slot
// counts (finest first) and migration policy, charging costs to cost
// (may be nil). Each radix must be at least 2 and the total span must fit
// in a Tick.
func NewScheme7(radices []int, policy Policy, cost *metrics.Cost) *Scheme7 {
	if len(radices) == 0 {
		panic("hier: at least one level required")
	}
	s := &Scheme7{levels: make([]level, len(radices)), policy: policy, cost: cost}
	gran := core.Tick(1)
	for i, r := range radices {
		if r < 2 {
			panic(fmt.Sprintf("hier: radix must be >= 2, got %d at level %d", r, i))
		}
		lv := &s.levels[i]
		lv.gran = gran
		lv.slots = make([]ilist.List[*core.Entry], r)
		lv.occ = bitmap.New(r)
		for j := range lv.slots {
			lv.slots[j].Init(cost)
		}
		if gran > core.Tick(1)<<56 {
			panic("hier: hierarchy span overflows the tick range")
		}
		gran *= core.Tick(r)
		lv.span = gran
	}
	return s
}

// Name returns "scheme7-<policy>".
func (s *Scheme7) Name() string { return "scheme7-" + s.policy.String() }

// Levels reports the number of wheels in the hierarchy (the paper's m).
func (s *Scheme7) Levels() int { return len(s.levels) }

// Slots reports the total number of slots across all levels (the paper's
// M; 244 for the worked example).
func (s *Scheme7) Slots() int {
	total := 0
	for i := range s.levels {
		total += len(s.levels[i].slots)
	}
	return total
}

// MaxInterval reports the largest startable interval: one tick less than
// the coarsest wheel's span.
func (s *Scheme7) MaxInterval() core.Tick { return s.levels[len(s.levels)-1].span - 1 }

// Now reports the current virtual time.
func (s *Scheme7) Now() core.Tick { return s.now }

// Len reports the number of outstanding timers.
func (s *Scheme7) Len() int { return s.n }

// levelFor returns the index of the finest level whose span covers diff.
func (s *Scheme7) levelFor(diff core.Tick) int {
	for k := range s.levels {
		s.cost.Compare(1) // the O(m) level search of section 6.2
		if diff < s.levels[k].span {
			return k
		}
	}
	return -1
}

// place links e into the correct slot for its (possibly rounded) expiry,
// keeping its migration count. The caller guarantees e.When > s.now and
// e.When - s.now <= MaxInterval.
func (s *Scheme7) place(e *core.Entry) {
	k := s.levelFor(e.When - s.now)
	lv := &s.levels[k]
	slot := int((e.When / lv.gran) % core.Tick(len(lv.slots)))
	s.cost.Read(1)
	lv.slots[slot].PushFront(&e.Node)
	lv.occ.Set(slot)
	e.Aux = int64(moves(e))<<auxMovesShift | int64(k)<<auxLevelShift | int64(slot)
}

// unlink detaches a placed entry from whichever level holds it.
func (s *Scheme7) unlink(e *core.Entry) {
	lvl, slot := where(e)
	e.Node.Detach()
	if s.levels[lvl].slots[slot].Empty() {
		s.levels[lvl].occ.Clear(slot)
	}
	s.n--
}

// roundFor rounds when to the nearest slot boundary of the level that
// would hold it, keeping the result strictly in the future. Level 0 needs
// no rounding (its slots are one tick wide).
func (s *Scheme7) roundFor(when core.Tick) core.Tick {
	k := s.levelFor(when - s.now)
	if k <= 0 {
		return when
	}
	g := s.levels[k].gran
	rounded := (when + g/2) / g * g
	if rounded <= s.now {
		rounded += g
	}
	// Rounding up near the top of the coarsest wheel could leave the
	// range; round down instead (still within half a slot of the request).
	if rounded-s.now > s.MaxInterval() {
		rounded = when / g * g
		if rounded <= s.now {
			rounded = when
		}
	}
	return rounded
}

// StartTimer computes the absolute expiry, applies the policy's rounding,
// and inserts the timer into the coarsest wheel whose slot width its
// remaining time spans.
func (s *Scheme7) StartTimer(interval core.Tick, cb core.Callback) (core.Handle, error) {
	return core.StartTimer(s, interval, cb)
}

// StopTimer detaches the timer from whichever level currently holds it,
// in O(1).
func (s *Scheme7) StopTimer(h core.Handle) error { return core.StopTimer(s, h) }

// ResetTimer implements core.Resetter in place.
func (s *Scheme7) ResetTimer(h core.Handle, interval core.Tick) error {
	return core.ResetTimer(s, h, interval)
}

// checkInterval reports the error StartEntry and ResetEntry share for an
// interval the hierarchy cannot hold.
func (s *Scheme7) checkInterval(interval core.Tick) error {
	if interval < 1 {
		return core.ErrNonPositiveInterval
	}
	if interval > s.MaxInterval() {
		return core.ErrIntervalOutOfRange
	}
	return nil
}

// StartEntry implements core.EntryOps.
func (s *Scheme7) StartEntry(e *core.Entry, interval core.Tick) error {
	if err := s.checkInterval(interval); err != nil {
		return err
	}
	e.Arm(s.nextID, s.now+interval)
	s.nextID++
	s.rearm(e)
	return nil
}

// StopEntry implements core.EntryOps.
func (s *Scheme7) StopEntry(e *core.Entry) error {
	placed, err := e.Stop()
	if placed {
		s.unlink(e)
	}
	return err
}

// ResetEntry implements core.EntryOps: unlink, then re-enter the
// hierarchy at the level the new interval calls for, with a fresh
// migration count.
func (s *Scheme7) ResetEntry(e *core.Entry, interval core.Tick) error {
	if err := s.checkInterval(interval); err != nil {
		return err
	}
	placed, err := e.BeginReset()
	if err != nil {
		return err
	}
	if placed {
		s.unlink(e)
	}
	e.When = s.now + interval
	s.rearm(e)
	return nil
}

// rearm places an entry whose When was just set, as a new admission:
// zero migrations, the policy's rounding applied.
func (s *Scheme7) rearm(e *core.Entry) {
	e.Aux = 0
	if s.policy == MigrateNever {
		e.When = s.roundFor(e.When)
	}
	s.cost.Write(1) // store the remainder with the timer record
	s.place(e)
	s.n++
}

// Tick advances the clock, cascades any coarser wheels whose slot
// boundary was crossed (re-inserting or firing their timers), and fires
// the finest wheel's current slot.
func (s *Scheme7) Tick() int {
	s.now++
	s.batch = s.batch[:0]

	// Cascade: when the finest wheel wraps, the next coarser wheel's
	// current slot empties downward, and so on up the hierarchy — the
	// paper's "there will always be a 60 second timer that is used to
	// update the minute array", realized structurally.
	for k := 1; k < len(s.levels); k++ {
		lv := &s.levels[k]
		if s.now%lv.gran != 0 {
			break
		}
		slot := int((s.now / lv.gran) % core.Tick(len(lv.slots)))
		s.cost.Read(1)
		s.cost.Compare(1)
		if !lv.slots[slot].Empty() {
			// Splice the whole slot out in O(1); cascade re-places or
			// batches each entry as the chain is consumed.
			for n := lv.slots[slot].TakeChain(); n != nil; {
				next := n.Unchain()
				s.cascade(n.Value)
				n = next
			}
			lv.occ.Clear(slot)
		}
	}

	// Fire the finest wheel's slot for the new time: one splice instead of
	// a per-node unlink.
	lv0 := &s.levels[0]
	slot := int(s.now % core.Tick(len(lv0.slots)))
	s.cost.Read(1)
	s.cost.Compare(1)
	if !lv0.slots[slot].Empty() {
		for n := lv0.slots[slot].TakeChain(); n != nil; {
			next := n.Unchain()
			s.collect(n.Value)
			n = next
		}
		lv0.occ.Clear(slot)
	}

	fired := core.FireBatch(s.batch)
	clear(s.batch)
	return fired
}

// collect moves an unlinked, due entry into this tick's firing batch.
func (s *Scheme7) collect(e *core.Entry) {
	e.Collect()
	s.batch = append(s.batch, e)
	s.n-- // collected entries no longer count as outstanding
}

// cascade handles one timer found in a cascading slot: fire it if due,
// otherwise migrate it toward the finest wheel per the policy.
func (s *Scheme7) cascade(e *core.Entry) {
	s.cost.Read(1)
	s.cost.Compare(1)
	if e.When <= s.now {
		s.collect(e)
		return
	}
	s.Migrations++
	e.Aux += 1 << auxMovesShift
	if s.policy == MigrateOnce && moves(e) == 1 {
		// One precise migration to the level the remaining time calls
		// for, rounded to that level's granularity so it fires there.
		e.When = s.roundFor(e.When)
		if e.When <= s.now {
			s.collect(e)
			return
		}
	}
	s.place(e)
}

// Occupancy reports the number of timers in each slot of the finest
// level, the wheel that fires them (the runtime's WheelStats gauges).
func (s *Scheme7) Occupancy() []int { return s.SlotOccupancy(0) }

// SlotOccupancy reports the number of timers in each slot of level k,
// for figure rendering (Figures 10-11 show per-array contents).
func (s *Scheme7) SlotOccupancy(k int) []int {
	lv := &s.levels[k]
	occ := make([]int, len(lv.slots))
	for j := range lv.slots {
		occ[j] = lv.slots[j].Len()
	}
	return occ
}

// Cursors reports each level's current slot index (the "current hour
// pointer" style markers of Figure 10).
func (s *Scheme7) Cursors() []int {
	out := make([]int, len(s.levels))
	for k := range s.levels {
		lv := &s.levels[k]
		out[k] = int((s.now / lv.gran) % core.Tick(len(lv.slots)))
	}
	return out
}

// LevelOccupancy reports the number of timers per level, for the E10
// memory/precision accounting.
func (s *Scheme7) LevelOccupancy() []int {
	occ := make([]int, len(s.levels))
	for k := range s.levels {
		for j := range s.levels[k].slots {
			occ[k] += s.levels[k].slots[j].Len()
		}
	}
	return occ
}

// CheckInvariants verifies that every slot list is structurally sound and
// every entry's expiry is consistent with the slot that holds it.
func (s *Scheme7) CheckInvariants() bool {
	count := 0
	for k := range s.levels {
		lv := &s.levels[k]
		for j := range lv.slots {
			if !lv.slots[j].CheckInvariants() {
				return false
			}
			ok := true
			lv.slots[j].Do(func(n *ilist.Node[*core.Entry]) {
				e := n.Value
				count++
				if e.When <= s.now {
					ok = false
				}
				if int((e.When/lv.gran)%core.Tick(len(lv.slots))) != j {
					ok = false
				}
				if l, sl := where(e); l != k || sl != j {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
	}
	return count == s.n
}

// NextExpiry implements core.NextExpirer with a lower bound: the next
// tick at which any level's cursor lands on an occupied slot, a level-0
// firing or a coarser-level cascade, whichever comes first. The
// earliest timer sits in a slot its level's cursor reaches no later
// than its expiry, so the answer is never after it. The exact earliest
// expiry would take a scan of a coarse slot; the bound costs an
// expiry-driven host at most one extra wakeup per cascade, on which it
// advances, fires nothing, and asks again. One bitmap probe per level;
// ok is false when no timers are outstanding.
func (s *Scheme7) NextExpiry() (core.Tick, bool) {
	if s.n == 0 {
		return 0, false
	}
	best := core.Tick(-1)
	for k := range s.levels {
		lv := &s.levels[k]
		r := core.Tick(len(lv.slots))
		cursor := int((s.now / lv.gran) % r)
		start := cursor + 1
		if start == len(lv.slots) {
			start = 0
		}
		d, ok := lv.occ.NextCyclic(start)
		if !ok {
			continue
		}
		// The slot d+1 positions ahead is visited when this level's
		// cursor has advanced that far: at boundary (now/gran + d + 1).
		visit := (s.now/lv.gran + core.Tick(d) + 1) * lv.gran
		if best < 0 || visit < best {
			best = visit
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Advance implements core.Advancer: spans with no occupied slot at any
// level are skipped outright (one bitmap probe per level per jump), so
// fast-forwarding an idle hierarchy costs per-event work, not per-tick
// work. Firing order is identical to tick-by-tick stepping.
func (s *Scheme7) Advance(n core.Tick) int {
	fired := 0
	target := s.now + n
	for s.now < target {
		next, ok := s.NextExpiry()
		if !ok || next > target {
			s.now = target
			s.cost.Read(1)
			return fired
		}
		if next-1 > s.now {
			s.now = next - 1
			s.cost.Read(1)
		}
		fired += s.Tick()
	}
	return fired
}

var (
	_ core.EntryScheme = (*Scheme7)(nil)
	_ core.Resetter    = (*Scheme7)(nil)
	_ core.Advancer    = (*Scheme7)(nil)
	_ core.NextExpirer = (*Scheme7)(nil)
)
