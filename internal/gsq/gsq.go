// Package gsq implements a grouped sorting queue: the "dynamic update"
// timer structure of the post-1987 literature (PAPERS.md: "Design of a
// Timer Queue Supporting Dynamic Update Operations", "A Grouped Sorting
// Queue Supporting Dynamic Updates for Timer Management in High-Speed
// NICs"), built as a peer of the paper's schemes 5/6/7.
//
// Timers are grouped by coarse deadline band — a band covers width
// consecutive ticks (width is a power of two, so the band of an absolute
// expiry is one shift) — and a band's timers are sorted only when the
// band comes due. The structure is a hashed ring of bands, like Scheme
// 6's hashed wheel but one level up: band epoch e lives in slot
// e % bands, and entries for a later epoch that happens to share the
// slot are filtered out by an epoch compare during extraction (the
// analogue of Scheme 6's stored revolution count).
//
//	START_TIMER            O(1) worst case (push onto an unsorted band)
//	STOP_TIMER             O(1) worst case (doubly-linked unlink)
//	RESET (in place)       O(1) worst case: unlink from the current
//	                       band, relink into the target band — same
//	                       entry, same ID. The wheels reset in place
//	                       too, but every surviving timer is still
//	                       touched once per revolution (Scheme 6) or
//	                       cascaded between levels (Scheme 7); a band
//	                       touches its survivors once, at its sort.
//	PER_TICK_BOOKKEEPING   amortized O(1) + O(k log k) once per band
//	                       for the k timers that are STILL THERE when
//	                       the band comes due.
//
// The headline property on reset-dominated workloads: a timer that is
// reset away before its band comes due is never sorted at all — the
// lazy sort only ever pays for timers that survive. A retransmit timer
// reset on every ACK costs two unlinks per ACK and nothing else.
//
// Sizing: bands×width should cover the common interval range, exactly
// like a wheel's slot count. Timers due within the CURRENT band land in
// an unsorted young list that per-tick bookkeeping scans, so width
// should not greatly exceed the typical short interval; timers beyond
// bands×width wrap and are filtered at extraction, exactly like Scheme
// 6 revolutions.
package gsq

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"timingwheels/internal/core"
	"timingwheels/internal/ilist"
	"timingwheels/internal/metrics"
)

// Scheme is the grouped sorting queue facility.
//
// Entries (core.Entry) are caller-owned; their absolute expiry alone
// places them.
type Scheme struct {
	slots []ilist.List[*core.Entry] // band ring: epoch e lives in slots[e%bands]
	mask  int                       // len(slots)-1 if power of two, else -1
	shift uint                      // width == 1<<shift; band of when is when>>shift
	width core.Tick

	// cur holds the current band's survivors, sorted ascending by
	// expiry (built by one lazy sort when the band came due); young
	// holds timers admitted after that sort with deadlines inside the
	// current band, unsorted.
	cur      ilist.List[*core.Entry]
	young    ilist.List[*core.Entry]
	curEpoch int64

	now    core.Tick
	nextID core.ID
	n      int
	cost   *metrics.Cost

	batch   []*core.Entry
	sortBuf []*core.Entry

	// Lazy-sort diagnostics: how many band sorts ran and how many
	// entries passed through them. Entries reset away before their band
	// came due never appear in sortedEntries — the amortization the
	// scheme exists for.
	sorts         uint64
	sortedEntries uint64
}

// New returns a grouped sorting queue with the given number of bands,
// each width ticks wide, charging costs to cost (may be nil). Width must
// be a power of two (the band of an expiry is then one shift); any band
// count >= 1 works, with the AND-mask index fast path when it is a power
// of two.
func New(bands int, width core.Tick, cost *metrics.Cost) *Scheme {
	if bands < 1 {
		panic(fmt.Sprintf("gsq: band count must be >= 1, got %d", bands))
	}
	if width < 1 || width&(width-1) != 0 {
		panic(fmt.Sprintf("gsq: band width must be a power of two, got %d", width))
	}
	s := &Scheme{
		slots: make([]ilist.List[*core.Entry], bands),
		mask:  -1,
		shift: uint(bits.TrailingZeros64(uint64(width))),
		width: width,
		cost:  cost,
	}
	if bands&(bands-1) == 0 {
		s.mask = bands - 1
	}
	for i := range s.slots {
		s.slots[i].Init(cost)
	}
	s.cur.Init(cost)
	s.young.Init(cost)
	return s
}

// Name returns "gsq".
func (s *Scheme) Name() string { return "gsq" }

// Bands reports the number of band slots.
func (s *Scheme) Bands() int { return len(s.slots) }

// Width reports the band width in ticks.
func (s *Scheme) Width() core.Tick { return s.width }

// SortStats reports how many lazy band sorts have run and how many
// entries passed through them in total.
func (s *Scheme) SortStats() (sorts, entries uint64) { return s.sorts, s.sortedEntries }

// epochOf reports the band epoch an absolute expiry belongs to.
func (s *Scheme) epochOf(when core.Tick) int64 { return int64(when) >> s.shift }

// index reduces a band epoch to a ring slot.
func (s *Scheme) index(epoch int64) int {
	if s.mask >= 0 {
		return int(uint64(epoch) & uint64(s.mask))
	}
	i := int(epoch % int64(len(s.slots)))
	if i < 0 {
		i += len(s.slots)
	}
	return i
}

// place links a pending entry into the structure according to its
// (already set) absolute expiry: the young list when it is due within
// the current band, the band ring otherwise. O(1) always.
func (s *Scheme) place(e *core.Entry) {
	ep := s.epochOf(e.When)
	s.cost.Compare(1) // current-band test
	if ep == s.curEpoch {
		s.young.PushFront(&e.Node)
	} else {
		s.cost.Write(1) // store the absolute expiry with the entry
		s.slots[s.index(ep)].PushFront(&e.Node)
	}
	s.n++
}

// StartTimer groups the timer into its deadline band in O(1).
func (s *Scheme) StartTimer(interval core.Tick, cb core.Callback) (core.Handle, error) {
	return core.StartTimer(s, interval, cb)
}

// StopTimer unlinks the timer from its band in O(1).
func (s *Scheme) StopTimer(h core.Handle) error { return core.StopTimer(s, h) }

// ResetTimer implements core.Resetter: the O(1) dynamic update. The
// timer keeps its entry and ID; it is unlinked from wherever it lives
// and relinked into the band of its new deadline. A timer that already
// fired or was stopped is refused with ErrTimerNotPending and nothing
// changes.
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

// StopEntry implements core.EntryOps. An entry sitting in the current
// firing batch is only marked stopped.
func (s *Scheme) StopEntry(e *core.Entry) error {
	placed, err := e.Stop()
	if placed {
		e.Node.Detach()
		s.n--
	}
	return err
}

// ResetEntry implements core.EntryOps: re-arm a pending entry in place.
// An entry collected into the current firing batch but not yet fired
// (a sibling callback is resetting it) leaves the batch and fires at
// the new deadline — exactly once.
func (s *Scheme) ResetEntry(e *core.Entry, interval core.Tick) error {
	if interval < 1 {
		return core.ErrNonPositiveInterval
	}
	placed, err := e.BeginReset()
	if err != nil {
		return err
	}
	if placed {
		e.Node.Detach()
		s.n--
	}
	e.When = s.now + interval
	s.place(e)
	return nil
}

// Tick advances time by one tick. On entering a new band it performs
// the lazy sort: the band's survivors are extracted (entries for a
// later epoch sharing the slot stay, as with Scheme 6 revolutions),
// sorted once by expiry, and become the cur list. Expiry processing
// then pops due timers off the sorted head and sweeps the young list.
func (s *Scheme) Tick() int {
	s.now++
	if ep := s.epochOf(s.now); ep != s.curEpoch {
		s.enterBand(ep)
	}
	s.batch = s.batch[:0]
	// Sorted head: everything due is at the front.
	for {
		n := s.cur.Front()
		if n == nil {
			break
		}
		s.cost.Read(1)
		s.cost.Compare(1)
		if n.Value.When > s.now {
			break
		}
		s.cur.Remove(n)
		s.collect(n.Value)
	}
	// Young sweep: timers admitted into the current band after its sort.
	for n := s.young.Front(); n != nil; {
		next := n.Next()
		s.cost.Read(1)
		s.cost.Compare(1)
		if n.Value.When <= s.now {
			s.young.Remove(n)
			s.collect(n.Value)
		}
		n = next
	}
	fired := core.FireBatch(s.batch)
	clear(s.batch)
	return fired
}

// collect moves an unlinked, due entry into this tick's firing batch.
func (s *Scheme) collect(e *core.Entry) {
	e.Collect()
	s.batch = append(s.batch, e)
	s.n--
}

// enterBand makes ep the current band: its slot's entries for exactly
// this epoch are extracted and sorted into cur. Ticks advance one at a
// time, so bands are entered in order and cur/young are empty here by
// construction (every resident was due by the last tick of the old
// band).
func (s *Scheme) enterBand(ep int64) {
	s.curEpoch = ep
	slot := &s.slots[s.index(ep)]
	s.cost.Read(1)
	s.cost.Compare(1)
	if slot.Empty() {
		return
	}
	s.sortBuf = s.sortBuf[:0]
	for n := slot.Front(); n != nil; {
		next := n.Next()
		s.cost.Read(1)
		s.cost.Compare(1) // epoch compare, the revolution filter
		if s.epochOf(n.Value.When) == ep {
			slot.Remove(n)
			s.sortBuf = append(s.sortBuf, n.Value)
		}
		n = next
	}
	if k := len(s.sortBuf); k > 0 {
		// Width-1 bands need no sort: epoch == when, so every entry in
		// the band shares one deadline and any order is sorted order.
		// That configuration is a Scheme 6 wheel with O(1) Reset.
		if k > 1 && s.shift > 0 {
			slices.SortFunc(s.sortBuf, func(a, b *core.Entry) int {
				return cmp.Compare(a.When, b.When)
			})
			// Charge the comparison sort: ~k·ceil(log2 k) compares.
			s.cost.Compare(k * bits.Len(uint(k-1)))
		}
		s.sorts++
		s.sortedEntries += uint64(k)
		for i, e := range s.sortBuf {
			s.cur.PushBack(&e.Node)
			s.sortBuf[i] = nil
		}
	}
}

// CheckInvariants verifies the structural invariants, for property
// tests:
//
//   - every band slot holds only pending entries of a strictly future
//     epoch that hashes to that slot;
//   - cur holds only pending current-epoch entries, sorted ascending by
//     expiry, none already due;
//   - young holds only pending current-epoch entries, none already due;
//   - every list is link-consistent and the entry count equals Len().
func (s *Scheme) CheckInvariants() error {
	total := 0
	for i := range s.slots {
		if !s.slots[i].CheckInvariants() {
			return fmt.Errorf("gsq: slot %d link invariants violated", i)
		}
		var err error
		s.slots[i].Do(func(n *ilist.Node[*core.Entry]) {
			e := n.Value
			ep := s.epochOf(e.When)
			switch {
			case !e.Pending():
				err = fmt.Errorf("gsq: slot %d holds %v entry id=%d", i, e.State(), e.ID())
			case ep <= s.curEpoch:
				err = fmt.Errorf("gsq: slot %d holds entry id=%d of non-future epoch %d (cur %d)", i, e.ID(), ep, s.curEpoch)
			case s.index(ep) != i:
				err = fmt.Errorf("gsq: entry id=%d epoch %d hashed to slot %d, found in %d", e.ID(), ep, s.index(ep), i)
			}
		})
		if err != nil {
			return err
		}
		total += s.slots[i].Len()
	}
	if !s.cur.CheckInvariants() || !s.young.CheckInvariants() {
		return fmt.Errorf("gsq: cur/young link invariants violated")
	}
	var err error
	prev := core.Tick(-1 << 62)
	s.cur.Do(func(n *ilist.Node[*core.Entry]) {
		e := n.Value
		switch {
		case !e.Pending():
			err = fmt.Errorf("gsq: cur holds %v entry id=%d", e.State(), e.ID())
		case s.epochOf(e.When) != s.curEpoch:
			err = fmt.Errorf("gsq: cur holds entry id=%d of epoch %d (cur %d)", e.ID(), s.epochOf(e.When), s.curEpoch)
		case e.When <= s.now:
			err = fmt.Errorf("gsq: cur holds already-due entry id=%d when=%d now=%d", e.ID(), e.When, s.now)
		case e.When < prev:
			err = fmt.Errorf("gsq: cur not sorted at entry id=%d", e.ID())
		}
		prev = e.When
	})
	if err != nil {
		return err
	}
	s.young.Do(func(n *ilist.Node[*core.Entry]) {
		e := n.Value
		switch {
		case !e.Pending():
			err = fmt.Errorf("gsq: young holds %v entry id=%d", e.State(), e.ID())
		case s.epochOf(e.When) != s.curEpoch:
			err = fmt.Errorf("gsq: young holds entry id=%d of epoch %d (cur %d)", e.ID(), s.epochOf(e.When), s.curEpoch)
		case e.When <= s.now:
			err = fmt.Errorf("gsq: young holds already-due entry id=%d when=%d now=%d", e.ID(), e.When, s.now)
		}
	})
	if err != nil {
		return err
	}
	total += s.cur.Len() + s.young.Len()
	if total != s.n {
		return fmt.Errorf("gsq: %d entries linked, Len() reports %d", total, s.n)
	}
	return nil
}

// Now reports the current virtual time.
func (s *Scheme) Now() core.Tick { return s.now }

// Len reports the number of outstanding timers.
func (s *Scheme) Len() int { return s.n }

var (
	_ core.EntryScheme = (*Scheme)(nil)
	_ core.Resetter    = (*Scheme)(nil)
)
