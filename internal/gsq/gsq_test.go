package gsq

import (
	"math/rand"
	"testing"

	"timingwheels/internal/core"
)

// fireAt advances s one tick at a time until target, recording each
// fired count, and fails if the invariants break along the way.
func advanceChecked(t *testing.T, s *Scheme, n core.Tick) int {
	t.Helper()
	fired := 0
	for i := core.Tick(0); i < n; i++ {
		fired += s.Tick()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after tick to %d: %v", s.Now(), err)
		}
	}
	return fired
}

func TestFireExactAcrossBands(t *testing.T) {
	s := New(8, 4, nil)
	// Intervals probing band edges, multi-wrap (>8*4=32), and the
	// current band.
	for _, iv := range []core.Tick{1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 100, 129} {
		fired := core.Tick(-1)
		start := s.Now()
		if _, err := s.StartTimer(iv, func(core.ID) { fired = s.Now() }); err != nil {
			t.Fatalf("start %d: %v", iv, err)
		}
		advanceChecked(t, s, iv+5)
		if fired != start+iv {
			t.Fatalf("interval %d: fired at %d, want %d", iv, fired, start+iv)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len=%d after drain", s.Len())
	}
}

func TestResetInPlaceKeepsEntryAndID(t *testing.T) {
	s := New(8, 4, nil)
	fired := 0
	h, err := s.StartTimer(10, func(core.ID) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	id := h.TimerID()
	// Reset to later: same handle, same ID, new deadline.
	if err := s.ResetTimer(h, 20); err != nil {
		t.Fatal(err)
	}
	if h.TimerID() != id {
		t.Fatalf("in-place reset changed the ID: %d -> %d", id, h.TimerID())
	}
	advanceChecked(t, s, 19)
	if fired != 0 {
		t.Fatal("fired before the reset deadline")
	}
	advanceChecked(t, s, 1)
	if fired != 1 {
		t.Fatalf("fired=%d at the reset deadline, want 1", fired)
	}
	// The entry has fired: a late reset through the same handle must be
	// refused.
	if err := s.ResetTimer(h, 5); err != core.ErrTimerNotPending {
		t.Fatalf("late ResetTimer: %v, want ErrTimerNotPending", err)
	}
}

func TestResetToSoonerAndCurrentBand(t *testing.T) {
	s := New(8, 4, nil)
	fired := core.Tick(-1)
	h, err := s.StartTimer(100, func(core.ID) { fired = s.Now() })
	if err != nil {
		t.Fatal(err)
	}
	advanceChecked(t, s, 3)
	// Reset into the CURRENT band (interval 1 from now): the entry moves
	// from a far band slot into the young list.
	if err := s.ResetTimer(h, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	advanceChecked(t, s, 1)
	if fired != 4 {
		t.Fatalf("fired at %d, want 4", fired)
	}
}

func TestResetRefusedAfterStopAndFire(t *testing.T) {
	s := New(8, 4, nil)
	h, _ := s.StartTimer(5, func(core.ID) {})
	if err := s.StopTimer(h); err != nil {
		t.Fatal(err)
	}
	if err := s.ResetTimer(h, 5); err != core.ErrTimerNotPending {
		t.Fatalf("reset after stop: %v, want ErrTimerNotPending", err)
	}
	if s.Len() != 0 {
		t.Fatalf("refused reset re-armed: Len=%d", s.Len())
	}
	fired := 0
	h2, _ := s.StartTimer(2, func(core.ID) { fired++ })
	advanceChecked(t, s, 2)
	if fired != 1 {
		t.Fatal("precondition: timer should have fired")
	}
	if err := s.ResetTimer(h2, 5); err != core.ErrTimerNotPending {
		t.Fatalf("reset after fire: %v, want ErrTimerNotPending", err)
	}
	advanceChecked(t, s, 10)
	if fired != 1 {
		t.Fatalf("refused reset re-armed a fired timer: fired=%d", fired)
	}
}

// TestResetOfBatchResidentEntry is the reentrancy corner the in-place
// reset must get right: two timers due the same tick, the first one's
// callback resets the second in place. The second must not fire that
// tick — it fires exactly once, at its new deadline.
func TestResetOfBatchResidentEntry(t *testing.T) {
	s := New(8, 4, nil)
	bFired := 0
	// b goes in first: the young list is LIFO, so the resetter inserted
	// after it is collected (and fired) first, with b batch-resident.
	hb, err := s.StartTimer(3, func(core.ID) { bFired++ })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartTimer(3, func(core.ID) {
		// b is already in the firing batch; the in-place reset must
		// defer it to the new deadline anyway.
		if err := s.ResetTimer(hb, 7); err != nil {
			t.Errorf("reentrant reset: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	advanceChecked(t, s, 3)
	if bFired != 0 {
		t.Fatalf("b fired %d times on the reset tick, want 0", bFired)
	}
	advanceChecked(t, s, 7)
	if bFired != 1 {
		t.Fatalf("b fired %d times total, want exactly 1", bFired)
	}
	if s.Len() != 0 {
		t.Fatalf("Len=%d after drain", s.Len())
	}
}

// TestStopThenResetOfBatchResidentEntry: a sibling callback stops a
// batch-resident timer, then a reset on it must be refused, and the
// stop must not be counted out of Len twice.
func TestStopThenResetOfBatchResidentEntry(t *testing.T) {
	s := New(8, 4, nil)
	bFired := 0
	hb, err := s.StartTimer(3, func(core.ID) { bFired++ })
	if err != nil {
		t.Fatal(err)
	}
	// Inserted after b, so this callback runs first (LIFO young list)
	// with b batch-resident.
	if _, err := s.StartTimer(3, func(core.ID) {
		if err := s.StopTimer(hb); err != nil {
			t.Errorf("reentrant stop: %v", err)
		}
		if err := s.ResetTimer(hb, 5); err != core.ErrTimerNotPending {
			t.Errorf("reset after reentrant stop: %v, want ErrTimerNotPending", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartTimer(8, func(core.ID) {}); err != nil {
		t.Fatal(err)
	}
	advanceChecked(t, s, 3)
	if s.Len() != 1 {
		t.Fatalf("Len=%d after the batch, want 1 (only the bystander)", s.Len())
	}
	advanceChecked(t, s, 7)
	if bFired != 0 {
		t.Fatalf("stopped timer fired %d times", bFired)
	}
}

// TestLazySortAmortization pins the headline property: timers reset
// away before their band comes due are never sorted.
func TestLazySortAmortization(t *testing.T) {
	s := New(16, 8, nil)
	// 100 timers due in band 2; reset all but 3 away to a far band
	// before it arrives.
	handles := make([]core.Handle, 100)
	for i := range handles {
		h, err := s.StartTimer(20, func(core.ID) {})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for _, h := range handles[3:] {
		if err := s.ResetTimer(h, 1000); err != nil {
			t.Fatal(err)
		}
	}
	advanceChecked(t, s, 25)
	_, sorted := s.SortStats()
	if sorted != 3 {
		t.Fatalf("sorted %d entries, want exactly the 3 survivors", sorted)
	}
}

func TestForeignHandleAndABA(t *testing.T) {
	a := New(8, 4, nil)
	b := New(8, 4, nil)
	h, _ := a.StartTimer(5, func(core.ID) {})
	if err := b.ResetTimer(h, 5); err != core.ErrForeignHandle {
		t.Fatalf("foreign reset: %v, want ErrForeignHandle", err)
	}
	if err := b.StopTimer(h); err != core.ErrForeignHandle {
		t.Fatalf("foreign stop: %v, want ErrForeignHandle", err)
	}
	if err := a.ResetTimer(h, 0); err != core.ErrNonPositiveInterval {
		t.Fatalf("zero-interval reset: %v, want ErrNonPositiveInterval", err)
	}
}

// TestRandomOpsInvariants drives a random schedule/stop/reset/tick mix
// against CheckInvariants and an expiry-count ledger.
func TestRandomOpsInvariants(t *testing.T) {
	for _, cfg := range []struct{ bands, width int }{
		{32, 8}, {8, 1}, {1, 16}, {7, 4}, // incl. non-pow2 bands, single band, width 1
	} {
		s := New(cfg.bands, core.Tick(cfg.width), nil)
		rng := rand.New(rand.NewSource(42))
		var timers []core.Handle
		started, fired, stopped := 0, 0, 0
		count := func(core.ID) { fired++ }
		for op := 0; op < 5000; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				h, err := s.StartTimer(core.Tick(1+rng.Intn(100)), count)
				if err != nil {
					t.Fatal(err)
				}
				timers = append(timers, h)
				started++
			case r < 6 && len(timers) > 0:
				i := rng.Intn(len(timers))
				if err := s.StopTimer(timers[i]); err == nil {
					stopped++
				}
				timers[i] = timers[len(timers)-1]
				timers = timers[:len(timers)-1]
			case r < 8 && len(timers) > 0:
				i := rng.Intn(len(timers))
				err := s.ResetTimer(timers[i], core.Tick(1+rng.Intn(100)))
				if err != nil && err != core.ErrTimerNotPending {
					t.Fatal(err)
				}
			default:
				s.Tick()
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("bands=%d width=%d op %d: %v", cfg.bands, cfg.width, op, err)
			}
		}
		for s.Len() > 0 {
			s.Tick()
		}
		if started != fired+stopped {
			t.Fatalf("bands=%d width=%d ledger: started=%d fired=%d stopped=%d",
				cfg.bands, cfg.width, started, fired, stopped)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { New(0, 4, nil) },
		func() { New(8, 0, nil) },
		func() { New(8, 3, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("constructor accepted invalid parameters")
				}
			}()
			bad()
		}()
	}
}
