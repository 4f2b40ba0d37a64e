package timer

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a controllable time source for deterministic runtime
// tests (used with WithManualDriver, so no goroutine races the test).
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 7, 5, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func newManualRuntime(t *testing.T, opts ...RuntimeOption) (*Runtime, *fakeClock) {
	t.Helper()
	fc := newFakeClock()
	opts = append([]RuntimeOption{
		WithGranularity(10 * time.Millisecond),
		WithNowFunc(fc.Now),
		WithManualDriver(),
	}, opts...)
	rt := NewRuntime(opts...)
	t.Cleanup(func() { rt.Close() })
	return rt, fc
}

func TestAfterFuncFiresOnSchedule(t *testing.T) {
	rt, fc := newManualRuntime(t)
	fired := 0
	if _, err := rt.AfterFunc(50*time.Millisecond, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	if fired != 0 {
		t.Fatal("fired early")
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	if fired != 1 {
		t.Fatalf("fired=%d after deadline", fired)
	}
	if rt.Outstanding() != 0 {
		t.Fatalf("Outstanding=%d", rt.Outstanding())
	}
}

func TestDurationRoundsUp(t *testing.T) {
	rt, fc := newManualRuntime(t) // 10ms granularity
	fired := 0
	if _, err := rt.AfterFunc(1*time.Millisecond, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	fc.Advance(9 * time.Millisecond)
	rt.Poll()
	if fired != 0 {
		t.Fatal("a sub-tick timer must wait one full tick")
	}
	fc.Advance(1 * time.Millisecond)
	rt.Poll()
	if fired != 1 {
		t.Fatal("timer should fire at the first tick boundary")
	}
}

func TestStopPreventsFire(t *testing.T) {
	rt, fc := newManualRuntime(t)
	fired := false
	tm, err := rt.AfterFunc(30*time.Millisecond, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !tm.Stop() {
		t.Fatal("Stop should succeed before expiry")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	fc.Advance(100 * time.Millisecond)
	rt.Poll()
	if fired {
		t.Fatal("stopped timer fired")
	}
	started, expired, stopped := rt.Stats()
	if started != 1 || expired != 0 || stopped != 1 {
		t.Fatalf("stats %d/%d/%d", started, expired, stopped)
	}
}

func TestCatchUpAfterDelay(t *testing.T) {
	// Several ticks elapse between polls: all due timers fire in one
	// poll, in deadline order across ticks.
	rt, fc := newManualRuntime(t)
	var order []int
	for i, d := range []time.Duration{10, 30, 20} {
		i := i
		if _, err := rt.AfterFunc(d*time.Millisecond, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	fc.Advance(500 * time.Millisecond)
	if n := rt.Poll(); n != 3 {
		t.Fatalf("Poll fired %d, want 3", n)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("order=%v, want [0 2 1] (deadline order)", order)
	}
}

func TestCallbackCanScheduleAndStop(t *testing.T) {
	rt, fc := newManualRuntime(t)
	var second atomic.Bool
	var victim *Timer
	var err error
	victim, err = rt.AfterFunc(100*time.Millisecond, func() { t.Error("victim fired") })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AfterFunc(10*time.Millisecond, func() {
		// Expiry actions run outside the lock: both calls must not
		// deadlock.
		if _, err := rt.AfterFunc(10*time.Millisecond, func() { second.Store(true) }); err != nil {
			t.Errorf("nested AfterFunc: %v", err)
		}
		victim.Stop()
	}); err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	fc.Advance(200 * time.Millisecond)
	rt.Poll()
	if !second.Load() {
		t.Fatal("nested timer did not fire")
	}
}

func TestAfterChannel(t *testing.T) {
	rt, fc := newManualRuntime(t)
	ch, err := rt.After(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
		t.Fatal("channel delivered early")
	default:
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	select {
	case <-ch:
	default:
		t.Fatal("channel should have a value after expiry")
	}
}

func TestCloseSemantics(t *testing.T) {
	rt, fc := newManualRuntime(t)
	fired := false
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if _, err := rt.AfterFunc(time.Millisecond, func() {}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("err=%v", err)
	}
	fc.Advance(time.Second)
	rt.Poll()
	if fired {
		t.Fatal("timer fired after Close")
	}
}

func TestSchedulerSchemesInterchangeable(t *testing.T) {
	for name, scheme := range map[string]Scheme{
		"ordered": NewOrderedList(SearchFromFront),
		"tree":    NewTree(TreeHeap),
		"hier":    NewHierarchicalWheel([]int{64, 64, 64}, MigrateAlways),
	} {
		t.Run(name, func(t *testing.T) {
			rt, fc := newManualRuntime(t, WithScheme(scheme))
			fired := 0
			for i := 1; i <= 5; i++ {
				if _, err := rt.AfterFunc(time.Duration(i)*10*time.Millisecond, func() { fired++ }); err != nil {
					t.Fatal(err)
				}
			}
			fc.Advance(time.Second)
			rt.Poll()
			if fired != 5 {
				t.Fatalf("fired=%d", fired)
			}
		})
	}
}

func TestScheduleTicks(t *testing.T) {
	rt, fc := newManualRuntime(t)
	fired := false
	tm, err := rt.Schedule(3, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if tm.Deadline() != 3 {
		t.Fatalf("Deadline=%d", tm.Deadline())
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	if !fired {
		t.Fatal("Schedule(3) did not fire after 3 ticks")
	}
	if _, err := rt.Schedule(1, nil); !errors.Is(err, ErrNilCallback) {
		t.Fatalf("nil fn err=%v", err)
	}
	// Zero clamps to one tick.
	fired2 := false
	if _, err := rt.Schedule(0, func() { fired2 = true }); err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	if !fired2 {
		t.Fatal("Schedule(0) should clamp to one tick")
	}
}

func TestEvery(t *testing.T) {
	rt, fc := newManualRuntime(t)
	count := 0
	tk, err := rt.Every(20*time.Millisecond, func() { count++ })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		fc.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	if count != 5 {
		t.Fatalf("ticker ran %d times in 100ms, want 5", count)
	}
	if tk.Runs() != 5 {
		t.Fatalf("Runs=%d", tk.Runs())
	}
	tk.Stop()
	for i := 0; i < 10; i++ {
		fc.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	if count != 5 {
		t.Fatalf("ticker ran after Stop: %d", count)
	}
	if _, err := rt.Every(time.Millisecond, nil); !errors.Is(err, ErrNilCallback) {
		t.Fatalf("nil fn err=%v", err)
	}
}

func TestBackgroundDriverFires(t *testing.T) {
	// Real goroutine + real clock: coarse assertion only, to stay
	// robust on loaded machines.
	rt := NewRuntime(WithGranularity(time.Millisecond))
	defer rt.Close()
	ch := make(chan struct{})
	var once sync.Once
	if _, err := rt.AfterFunc(5*time.Millisecond, func() { once.Do(func() { close(ch) }) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("background driver never fired the timer")
	}
}

func TestConcurrentScheduling(t *testing.T) {
	rt := NewRuntime(WithGranularity(time.Millisecond), WithScheme(NewHashedWheel(256)))
	defer rt.Close()
	const goroutines = 8
	const perG = 200
	var fired atomic.Int64
	var stopped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tm, err := rt.AfterFunc(time.Duration(1+i%20)*time.Millisecond, func() {
					fired.Add(1)
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if tm.Stop() {
						stopped.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fired.Load()+stopped.Load() == goroutines*perG {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := fired.Load() + stopped.Load(); got != goroutines*perG {
		t.Fatalf("fired+stopped=%d, want %d", got, goroutines*perG)
	}
	if rt.Outstanding() != 0 {
		t.Fatalf("Outstanding=%d", rt.Outstanding())
	}
}

func TestSharded(t *testing.T) {
	s := NewSharded(4, WithGranularity(time.Millisecond))
	defer s.Close()
	if s.Shards() != 4 {
		t.Fatalf("Shards=%d", s.Shards())
	}
	var fired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := s.AfterFunc(2*time.Millisecond, func() { fired.Add(1) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && fired.Load() < 400 {
		time.Sleep(5 * time.Millisecond)
	}
	if fired.Load() != 400 {
		t.Fatalf("fired=%d", fired.Load())
	}
	if s.Outstanding() != 0 {
		t.Fatalf("Outstanding=%d", s.Outstanding())
	}
}

func TestShardedEvery(t *testing.T) {
	s := NewSharded(0, WithGranularity(time.Millisecond)) // clamps to 1
	defer s.Close()
	if s.Shards() != 1 {
		t.Fatalf("Shards=%d", s.Shards())
	}
	var n atomic.Int64
	tk, err := s.Every(2*time.Millisecond, func() { n.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && n.Load() < 3 {
		time.Sleep(2 * time.Millisecond)
	}
	tk.Stop()
	if n.Load() < 3 {
		t.Fatalf("ticker ran %d times", n.Load())
	}
}

func TestResetExtendsDeadline(t *testing.T) {
	rt, fc := newManualRuntime(t)
	fired := 0
	tm, err := rt.AfterFunc(30*time.Millisecond, func() { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	// Just before expiry, push the deadline out (the retransmission
	// pattern: every send resets the timeout).
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	wasPending, err := tm.Reset(30 * time.Millisecond)
	if err != nil || !wasPending {
		t.Fatalf("Reset: pending=%v err=%v", wasPending, err)
	}
	fc.Advance(20 * time.Millisecond) // original deadline passes
	rt.Poll()
	if fired != 0 {
		t.Fatal("timer fired at the original deadline despite Reset")
	}
	fc.Advance(10 * time.Millisecond) // new deadline
	rt.Poll()
	if fired != 1 {
		t.Fatalf("fired=%d at the new deadline", fired)
	}
}

func TestResetAfterFireReArms(t *testing.T) {
	rt, fc := newManualRuntime(t)
	fired := 0
	tm, err := rt.AfterFunc(10*time.Millisecond, func() { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	if fired != 1 {
		t.Fatalf("fired=%d", fired)
	}
	wasPending, err := tm.Reset(10 * time.Millisecond)
	if err != nil || wasPending {
		t.Fatalf("Reset after fire: pending=%v err=%v", wasPending, err)
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	if fired != 2 {
		t.Fatalf("fired=%d after re-arm", fired)
	}
}

func TestResetOnClosedRuntime(t *testing.T) {
	rt, _ := newManualRuntime(t)
	tm, err := rt.AfterFunc(time.Second, func() {})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if _, err := tm.Reset(time.Second); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("err=%v", err)
	}
}

func TestNilCallbackRejected(t *testing.T) {
	rt, _ := newManualRuntime(t)
	if _, err := rt.AfterFunc(time.Millisecond, nil); !errors.Is(err, ErrNilCallback) {
		t.Fatalf("err=%v", err)
	}
}

func TestGranularityAccessor(t *testing.T) {
	rt, _ := newManualRuntime(t)
	if rt.Granularity() != 10*time.Millisecond {
		t.Fatalf("Granularity=%v", rt.Granularity())
	}
}

func TestClockRegressionIsSafe(t *testing.T) {
	// A wall clock stepping backwards (NTP correction) must not panic,
	// fire early, or rewind the facility.
	rt, fc := newManualRuntime(t)
	fired := 0
	if _, err := rt.AfterFunc(50*time.Millisecond, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	fc.Advance(-20 * time.Millisecond) // regression
	rt.Poll()                          // must be a no-op, not a rewind
	if fired != 0 {
		t.Fatal("fired during clock regression")
	}
	fc.Advance(40 * time.Millisecond) // back past the deadline
	rt.Poll()
	if fired != 1 {
		t.Fatalf("fired=%d after recovery", fired)
	}
}

func TestShardedKeyAffinity(t *testing.T) {
	s := NewSharded(4, WithGranularity(time.Millisecond))
	defer s.Close()
	// Same key always lands on the same shard: schedule a batch with one
	// key and confirm exactly one shard holds them.
	var timers []*Timer
	for i := 0; i < 40; i++ {
		tm, err := s.AfterFuncKey(0xfeedface, time.Hour, func() {})
		if err != nil {
			t.Fatal(err)
		}
		timers = append(timers, tm)
	}
	owners := map[*Runtime]int{}
	for _, tm := range timers {
		owners[tm.rt]++
	}
	if len(owners) != 1 {
		t.Fatalf("one key spread over %d shards", len(owners))
	}
	// Distinct keys spread across shards.
	owners = map[*Runtime]int{}
	for key := uint64(0); key < 64; key++ {
		tm, err := s.AfterFuncKey(key, time.Hour, func() {})
		if err != nil {
			t.Fatal(err)
		}
		owners[tm.rt]++
		tm.Stop()
	}
	if len(owners) < 3 {
		t.Fatalf("64 keys used only %d of 4 shards", len(owners))
	}
	for _, tm := range timers {
		tm.Stop()
	}
	// EveryKey runs on the keyed shard.
	var n atomic.Int64
	tk, err := s.EveryKey(7, 2*time.Millisecond, func() { n.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && n.Load() < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	tk.Stop()
	if n.Load() < 2 {
		t.Fatalf("keyed ticker ran %d times", n.Load())
	}
}

// TestResetInPlaceEveryScheme pins Reset on a pending timer as an
// update, not a lifecycle, on every production scheme: the timer keeps
// its ID, the started/stopped ledger does not move, and it fires once,
// at the new deadline.
func TestResetInPlaceEveryScheme(t *testing.T) {
	for name, mk := range entrySchemes {
		t.Run(name, func(t *testing.T) {
			rt, fc := newManualRuntime(t, WithScheme(mk()))
			fired := 0
			tm, err := rt.AfterFunc(time.Second, func() { fired++ })
			if err != nil {
				t.Fatal(err)
			}
			id := tm.ID()
			started, _, stopped := rt.Stats()
			for _, d := range []time.Duration{2 * time.Second, 300 * time.Millisecond} {
				wasPending, err := tm.Reset(d)
				if err != nil || !wasPending {
					t.Fatalf("Reset(%v) = (%v, %v), want (true, nil)", d, wasPending, err)
				}
			}
			if tm.ID() != id {
				t.Fatalf("Reset changed the ID: %d -> %d", id, tm.ID())
			}
			if s, _, p := rt.Stats(); s != started || p != stopped {
				t.Fatalf("ledger moved: started %d->%d, stopped %d->%d", started, s, stopped, p)
			}
			if got := rt.Outstanding(); got != 1 {
				t.Fatalf("Outstanding=%d after reset, want 1", got)
			}
			fc.Advance(290 * time.Millisecond)
			rt.Poll()
			if fired != 0 {
				t.Fatal("fired before the new deadline")
			}
			fc.Advance(10 * time.Millisecond)
			rt.Poll()
			if fired != 1 {
				t.Fatalf("fired %d times at the new deadline, want 1", fired)
			}
			for i := 0; i < 30; i++ {
				fc.Advance(100 * time.Millisecond)
				rt.Poll()
			}
			if fired != 1 {
				t.Fatalf("fired %d times in total, want 1 (old deadlines must not fire)", fired)
			}
			if s, e, p := rt.Stats(); s != 1 || e != 1 || p != 0 {
				t.Fatalf("stats=%d/%d/%d, want 1/1/0", s, e, p)
			}
		})
	}
}
