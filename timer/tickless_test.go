package timer

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timingwheels/clock"
	"timingwheels/internal/chaos"
)

func TestTicklessFiresTimers(t *testing.T) {
	rt := NewRuntime(
		WithGranularity(time.Millisecond),
		WithScheme(NewTree(TreeHeap)),
		WithTickless(),
	)
	defer rt.Close()
	var fired atomic.Int32
	var wg sync.WaitGroup
	for _, d := range []time.Duration{5, 15, 10, 30} {
		wg.Add(1)
		if _, err := rt.AfterFunc(d*time.Millisecond, func() {
			fired.Add(1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("tickless runtime fired only %d/4 timers", fired.Load())
	}
}

func TestTicklessEarlierTimerWakesDriver(t *testing.T) {
	rt := NewRuntime(
		WithGranularity(time.Millisecond),
		WithScheme(NewOrderedList(SearchFromFront)),
		WithTickless(),
	)
	defer rt.Close()
	// Park a far-future timer so the driver sleeps long, then schedule a
	// near one: the poke must cut the sleep short.
	if _, err := rt.AfterFunc(time.Hour, func() {}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the driver settle into its sleep
	ch := make(chan struct{})
	start := time.Now()
	if _, err := rt.AfterFunc(5*time.Millisecond, func() { close(ch) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
		if e := time.Since(start); e > 2*time.Second {
			t.Fatalf("near timer took %v despite poke", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("near timer never fired; driver still asleep on the far deadline")
	}
}

func TestTicklessStopQuiesces(t *testing.T) {
	rt := NewRuntime(
		WithGranularity(time.Millisecond),
		WithScheme(NewTree(TreeLeftist)),
		WithTickless(),
	)
	defer rt.Close()
	tm, err := rt.AfterFunc(10*time.Millisecond, func() { t.Error("stopped timer fired") })
	if err != nil {
		t.Fatal(err)
	}
	if !tm.Stop() {
		t.Fatal("Stop failed")
	}
	time.Sleep(30 * time.Millisecond)
	if rt.Outstanding() != 0 {
		t.Fatalf("Outstanding=%d", rt.Outstanding())
	}
}

func TestTicklessRejectsHashedWheels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tickless over a hashed wheel should panic")
		}
	}()
	NewRuntime(WithScheme(NewHashedWheel(64)), WithTickless())
}

// TestTicklessOverWheelAndHybrid: the occupancy bitmaps make the bounded
// wheel, the hybrid and the hierarchy eligible for tickless hosting.
// The hierarchy's NextExpiry is a lower bound: its 8 ms and 12 ms
// timers start on level 1, so the driver first wakes to cascade them.
func TestTicklessOverWheelAndHybrid(t *testing.T) {
	for name, scheme := range map[string]Scheme{
		"wheel":     NewWheel(1 << 12),
		"hybrid":    NewHybridWheel(256),
		"hierarchy": NewHierarchicalWheel([]int{8, 8, 8}, MigrateAlways),
	} {
		t.Run(name, func(t *testing.T) {
			rt := NewRuntime(
				WithGranularity(time.Millisecond),
				WithScheme(scheme),
				WithTickless(),
			)
			defer rt.Close()
			var fired atomic.Int32
			var wg sync.WaitGroup
			for _, d := range []time.Duration{4, 12, 8} {
				wg.Add(1)
				if _, err := rt.AfterFunc(d*time.Millisecond, func() {
					fired.Add(1)
					wg.Done()
				}); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("only %d/3 timers fired", fired.Load())
			}
		})
	}
}

func TestTicklessConcurrent(t *testing.T) {
	rt := NewRuntime(
		WithGranularity(time.Millisecond),
		WithScheme(NewTree(TreeHeap)),
		WithTickless(),
	)
	defer rt.Close()
	var fired, stopped atomic.Int64
	var wg sync.WaitGroup
	const total = 400
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				tm, err := rt.AfterFunc(time.Duration(1+i%10)*time.Millisecond, func() {
					fired.Add(1)
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 && tm.Stop() {
					stopped.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && fired.Load()+stopped.Load() < total {
		time.Sleep(2 * time.Millisecond)
	}
	if got := fired.Load() + stopped.Load(); got != total {
		t.Fatalf("fired+stopped=%d, want %d", got, total)
	}
}

// TestTicklessEarlierDeadlineRearmsSleep is the chaos-clock regression
// test for the wakeup edge case: the driver is parked on a far-future
// deadline (an hour of virtual time) when an earlier timer arrives. The
// poke must re-arm the sleep against the new earliest deadline; if it
// does not, the driver stays asleep on the far deadline and the test
// times out. The chaos clock keeps the deadlines virtual, so the test
// never depends on real-time pacing beyond the poke itself.
func TestTicklessEarlierDeadlineRearmsSleep(t *testing.T) {
	c := chaos.NewManual(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	rt := NewRuntime(
		WithGranularity(time.Millisecond),
		WithScheme(NewTree(TreeHeap)),
		WithTickless(),
		WithNowFunc(c.Now),
	)
	defer rt.Close()
	if _, err := rt.AfterFunc(time.Hour, func() {}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the driver settle into the 1h sleep
	fired := make(chan struct{})
	if _, err := rt.AfterFunc(5*time.Millisecond, func() { close(fired) }); err != nil {
		t.Fatal(err)
	}
	c.Advance(10 * time.Millisecond) // the near deadline passes on the fault clock
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("driver never re-armed its sleep for the earlier deadline")
	}
}

// TestTicklessStaleParkDoesNotFireEarly pins the interval-stretching fix
// in schedule: a parked tickless driver leaves the facility's virtual
// time behind the wall clock, and a timer started against that stale
// base would expire early by exactly the staleness (an 80ms timer after
// a 100ms park fired immediately). The interval must be stretched to the
// wall-clock deadline instead.
func TestTicklessStaleParkDoesNotFireEarly(t *testing.T) {
	c := chaos.NewManual(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	rt := NewRuntime(
		WithGranularity(10*time.Millisecond),
		WithScheme(NewTree(TreeHeap)),
		WithTickless(),
		WithNowFunc(c.Now),
	)
	defer rt.Close()
	if _, err := rt.AfterFunc(time.Hour, func() {}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the driver park on the 1h deadline
	c.Advance(500 * time.Millisecond) // 50 ticks pass unobserved while parked

	fired := make(chan struct{})
	if _, err := rt.AfterFunc(100*time.Millisecond, func() { close(fired) }); err != nil {
		t.Fatal(err)
	}
	// The schedule pokes the driver, whose next Poll catches the facility
	// up to the wall tick. Wait for that to happen before asserting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rt.mu.Lock()
		caughtUp := rt.fac.Now() >= 50
		rt.mu.Unlock()
		if caughtUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("driver never caught the facility up to the wall tick")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let any (buggy) early delivery land
	select {
	case <-fired:
		t.Fatal("timer fired before its 100ms wall-clock deadline")
	default:
	}

	c.Advance(100 * time.Millisecond) // now the wall-clock deadline passes
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired after its wall-clock deadline passed")
	}
}

// TestTicklessForwardJumpRecovery: a suspended-and-resumed host (10
// minutes of clock injected by chaos.Jump) must drain every due timer in
// bounded batches and record the anomaly, with the driver staying live.
func TestTicklessForwardJumpRecovery(t *testing.T) {
	c := chaos.New(nil) // real base clock with injectable leaps
	rt := NewRuntime(
		WithGranularity(10*time.Millisecond),
		WithScheme(NewTree(TreeHeap)),
		WithTickless(),
		WithNowFunc(c.Now),
		WithMaxCatchUp(100),
	)
	defer rt.Close()
	const timers = 60
	var fired atomic.Int32
	// One sentinel wakes the driver shortly after the jump; the rest are
	// spread across the 10-minute window the clock will leap over.
	sentinel := make(chan struct{})
	if _, err := rt.AfterFunc(50*time.Millisecond, func() { close(sentinel) }); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= timers; i++ {
		if _, err := rt.AfterFunc(time.Duration(i)*10*time.Second, func() {
			fired.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.Jump(10 * time.Minute)
	select {
	case <-sentinel:
	case <-time.After(5 * time.Second):
		t.Fatal("sentinel never fired after the jump")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && fired.Load() < timers {
		time.Sleep(2 * time.Millisecond)
	}
	if fired.Load() != timers {
		t.Fatalf("fired %d/%d timers after the jump", fired.Load(), timers)
	}
	for time.Now().Before(deadline) && rt.Health().TicksBehind > 0 {
		time.Sleep(2 * time.Millisecond)
	}
	h := rt.Health()
	if h.TicksBehind != 0 {
		t.Fatalf("catch-up never completed: %s", h)
	}
	if h.Anomalies == 0 || h.LastAnomaly.Kind != AnomalyForwardJump {
		t.Fatalf("jump not recorded: %s", h)
	}
}

// recomputeCountingClock wraps a Fake so a test can count the tickless
// driver's sleep recomputes: each one re-arms the driver's single
// wakeup timer with exactly one Reset, after recording the tick it
// parks until, which the wrapper samples.
type recomputeCountingClock struct {
	*clock.Fake
	rt       atomic.Pointer[Runtime] // set once the runtime exists
	resets   atomic.Int64
	parkedAt atomic.Int64 // rt.parkedUntil at the latest Reset, -1 if unknown
}

func (c *recomputeCountingClock) NewTimer(d time.Duration) clock.Timer {
	return &countingTimer{Timer: c.Fake.NewTimer(d), c: c}
}

type countingTimer struct {
	clock.Timer
	c *recomputeCountingClock
}

func (t *countingTimer) Reset(d time.Duration) bool {
	ok := t.Timer.Reset(d)
	parked := int64(-1) // a recompute that ran before the test saw the runtime
	if rt := t.c.rt.Load(); rt != nil {
		parked = rt.parkedUntil.Load()
	}
	t.c.parkedAt.Store(parked)
	t.c.resets.Add(1)
	return ok
}

// waitParked waits until the driver has parked — its wakeup re-armed
// for the tick it recorded, no poke pending — and stayed so across a
// few samples, then reports the recompute count.
func (c *recomputeCountingClock) waitParked(t *testing.T) int64 {
	t.Helper()
	rt := c.rt.Load()
	deadline := time.Now().Add(5 * time.Second)
	stable := 0
	last := int64(-1)
	for stable < 4 {
		if time.Now().After(deadline) {
			t.Fatal("tickless driver never parked")
		}
		time.Sleep(2 * time.Millisecond)
		n := c.resets.Load()
		p := rt.parkedUntil.Load()
		at := c.parkedAt.Load()
		if n > 0 && n == last && p != notParked && (at == p || at == -1) && len(rt.wake) == 0 {
			stable++
		} else {
			stable = 0
		}
		last = n
	}
	return last
}

// TestTicklessWakeDiscipline pins the conditional poke on Scheme 7 over
// a Fake clock. With 10k timers parked hours out the driver naps its
// one-minute maximum; admissions later than that target — schedules,
// a batch, a reset, a stop — neither poll nor wake it. One earlier
// schedule wakes it exactly once, re-parks it no later than its
// deadline, and fires on time.
func TestTicklessWakeDiscipline(t *testing.T) {
	for name, extra := range map[string][]RuntimeOption{
		"sync":    nil,
		"ingress": {WithIngress(0)},
	} {
		t.Run(name, func(t *testing.T) {
			c := &recomputeCountingClock{Fake: clock.NewFake(time.Time{})}
			rt := NewRuntime(append([]RuntimeOption{
				WithGranularity(time.Millisecond),
				WithScheme(NewHierarchicalWheel([]int{256, 64, 64, 64, 64}, MigrateAlways)),
				WithTickless(),
				WithClockSource(c),
			}, extra...)...)
			c.rt.Store(rt)
			defer rt.Close()
			var lateFired atomic.Int32
			late := func() { lateFired.Add(1) }
			residents := make([]Req, 10_000)
			for i := range residents {
				residents[i] = Req{After: 2*time.Hour + time.Duration(i)*360*time.Millisecond, Fn: late}
			}
			if _, err := rt.ScheduleBatch(residents); err != nil {
				t.Fatal(err)
			}
			recomputes := c.waitParked(t)
			if p := rt.parkedUntil.Load(); p != 60_000 {
				t.Fatalf("parked until tick %d, want the one-minute nap (60000)", p)
			}
			polls := rt.Snapshot().TickBatch.Count

			// The stream: 30 s of admissions, every deadline past the nap.
			var stream []*Timer
			for i := 0; i < 300; i++ {
				c.Advance(100 * time.Millisecond)
				tm, err := rt.AfterFunc(2*time.Minute+time.Duration(i)*time.Second, late)
				if err != nil {
					t.Fatal(err)
				}
				stream = append(stream, tm)
			}
			if _, err := rt.ScheduleBatch([]Req{{After: 90 * time.Second, Fn: late}, {After: time.Hour, Fn: late}}); err != nil {
				t.Fatal(err)
			}
			if _, err := stream[0].Reset(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if !stream[1].Stop() {
				t.Fatal("Stop of a pending timer failed")
			}
			time.Sleep(20 * time.Millisecond) // room for a (wrong) poke to land
			if n := c.resets.Load(); n != recomputes {
				t.Fatalf("late admissions woke the driver: %d recomputes, want %d", n, recomputes)
			}
			if n := rt.Snapshot().TickBatch.Count; n != polls {
				t.Fatalf("late admissions cost %d polls", n-polls)
			}

			// One earlier schedule: 10 s out at 30 s, before the 60 s nap.
			fired := make(chan struct{})
			start := c.Now()
			if _, err := rt.AfterFunc(10*time.Second, func() { close(fired) }); err != nil {
				t.Fatal(err)
			}
			if n := c.waitParked(t); n != recomputes+1 {
				t.Fatalf("earlier schedule cost %d recomputes, want 1", n-recomputes)
			}
			if p := rt.parkedUntil.Load(); p > 40_000 {
				t.Fatalf("re-parked until tick %d, after the new deadline 40000", p)
			}
			if n := rt.Snapshot().TickBatch.Count; n != polls {
				t.Fatalf("the poke polled %d times, want a recompute only", n-polls)
			}
			c.Advance(10 * time.Second)
			select {
			case <-fired:
			case <-time.After(5 * time.Second):
				t.Fatal("earlier timer never fired")
			}
			if e := c.Now().Sub(start); e < 10*time.Second {
				t.Fatalf("earlier timer fired after %v of fake time", e)
			}
			if n := lateFired.Load(); n != 0 {
				t.Fatalf("%d late timers fired early", n)
			}
		})
	}
}

// TestTicklessParkedRace runs under -race in make check: goroutines
// call AfterFunc, ScheduleBatch and Reset against a tickless Scheme 7
// runtime parked on an hour-out timer, on the real clock. The
// conditional poke races the driver's park: an admission missed there
// would sleep through to the minute-long nap. Every timer must fire
// exactly once, no earlier than one granularity before its requested
// deadline and no later than one granularity after it (plus a
// scheduling allowance far below the nap).
func TestTicklessParkedRace(t *testing.T) {
	const (
		gran  = 2 * time.Millisecond
		slack = 250 * time.Millisecond
	)
	for name, extra := range map[string][]RuntimeOption{
		"sync":    nil,
		"ingress": {WithIngress(0)},
	} {
		t.Run(name, func(t *testing.T) {
			rt := NewRuntime(append([]RuntimeOption{
				WithGranularity(gran),
				WithScheme(NewHierarchicalWheel([]int{256, 64, 64, 64, 64}, MigrateAlways)),
				WithTickless(),
			}, extra...)...)
			defer rt.Close()
			if _, err := rt.AfterFunc(time.Hour, func() {}); err != nil {
				t.Fatal(err)
			}
			// probe is one expected expiry: the window its fire must land
			// in, and how often it fired.
			type probe struct {
				lo, hi time.Time
				fires  atomic.Int32
				at     atomic.Int64
				done   chan struct{}
			}
			newProbe := func() *probe { return &probe{done: make(chan struct{})} }
			fn := func(p *probe) func() {
				return func() {
					p.at.Store(time.Now().UnixNano())
					if p.fires.Add(1) == 1 {
						close(p.done)
					}
				}
			}
			window := func(p *probe, start, end time.Time, d time.Duration) {
				p.lo, p.hi = start.Add(d-gran), end.Add(d+gran+slack)
			}
			var (
				mu     sync.Mutex
				probes []*probe
				wg     sync.WaitGroup
			)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 12; i++ {
						d := time.Duration(1+rng.Intn(20)) * time.Millisecond
						var op []*probe
						start := time.Now()
						switch i % 3 {
						case 0:
							p := newProbe()
							if _, err := rt.AfterFunc(d, fn(p)); err != nil {
								t.Error(err)
								return
							}
							window(p, start, time.Now(), d)
							op = append(op, p)
						case 1:
							reqs := make([]Req, 3)
							for j := range reqs {
								p := newProbe()
								reqs[j] = Req{After: d + time.Duration(j)*time.Millisecond, Fn: fn(p)}
								op = append(op, p)
							}
							if _, err := rt.ScheduleBatch(reqs); err != nil {
								t.Error(err)
								return
							}
							for j, p := range op {
								window(p, start, time.Now(), reqs[j].After)
							}
						case 2:
							p := newProbe()
							tm, err := rt.AfterFunc(time.Minute, fn(p))
							if err != nil {
								t.Error(err)
								return
							}
							start = time.Now()
							if _, err := tm.Reset(d); err != nil {
								t.Error(err)
								return
							}
							window(p, start, time.Now(), d)
							op = append(op, p)
						}
						mu.Lock()
						probes = append(probes, op...)
						mu.Unlock()
						for _, p := range op {
							select {
							case <-p.done:
							case <-time.After(5 * time.Second):
								t.Error("timer never fired: the driver slept through its admission")
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			time.Sleep(10 * time.Millisecond) // let a (wrong) second fire land
			for i, p := range probes {
				at := time.Unix(0, p.at.Load())
				switch {
				case p.fires.Load() != 1:
					t.Errorf("timer %d fired %d times", i, p.fires.Load())
				case at.Before(p.lo):
					t.Errorf("timer %d fired %v early", i, p.lo.Sub(at))
				case at.After(p.hi):
					t.Errorf("timer %d fired %v late", i, at.Sub(p.hi))
				}
			}
		})
	}
}

// recomputeHookClock is a Fake whose Now runs a one-shot hook when the
// tickless driver reads the time inside its sleep recompute — after it
// has drained the staging ring, before it records where it parks.
type recomputeHookClock struct {
	*clock.Fake
	hook atomic.Pointer[func()]
}

func (c *recomputeHookClock) Now() time.Time {
	if c.hook.Load() != nil && calledFromRecompute() {
		if h := c.hook.Swap(nil); h != nil {
			(*h)()
		}
	}
	return c.Fake.Now()
}

// calledFromRecompute reports whether the driver loop itself (not Poll
// or a callback it runs) is reading the clock.
func calledFromRecompute() bool {
	pc := make([]uintptr, 6)
	frames := runtime.CallersFrames(pc[:runtime.Callers(3, pc)])
	for {
		f, more := frames.Next()
		switch {
		case strings.HasSuffix(f.Function, ".(*Runtime).ticklessLoop"):
			return true
		case strings.Contains(f.Function, ".(*Runtime)."):
			return false
		}
		if !more {
			return false
		}
	}
}

// TestTicklessStageDuringRecomputeWakes pins the window the conditional
// poke must cover on a WithIngress runtime: a producer stages an intent
// after the driver's recompute drained the ring but before it records
// its new sleep. The producer cannot compare against a sleep that does
// not exist yet, so it must poke; if it compared against the previous
// (already passed) sleep target instead, the driver would nap a minute
// past the intent's 5 s deadline.
func TestTicklessStageDuringRecomputeWakes(t *testing.T) {
	c := &recomputeHookClock{Fake: clock.NewFake(time.Time{})}
	rt := NewRuntime(
		WithGranularity(time.Millisecond),
		WithScheme(NewHierarchicalWheel([]int{256, 64, 64, 64, 64}, MigrateAlways)),
		WithTickless(),
		WithIngress(0),
		WithClockSource(c),
	)
	defer rt.Close()
	if _, err := rt.AfterFunc(time.Hour, func() {}); err != nil {
		t.Fatal(err)
	}
	staged := make(chan struct{})
	fired := make(chan struct{})
	stage := func() {
		// Another goroutine stages while the driver holds the window.
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := rt.AfterFunc(5*time.Second, func() { close(fired) }); err != nil {
				t.Error(err)
			}
		}()
		<-done
		close(staged)
	}
	// The near timer's callback arms the hook, so it runs in the
	// recompute that follows this expiry, with only the hour-out timer
	// left to sleep for.
	if _, err := rt.AfterFunc(time.Second, func() { c.hook.Store(&stage) }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for hooked := false; !hooked; {
		select {
		case <-staged:
			hooked = true
		default:
			if time.Now().After(deadline) {
				t.Fatal("hooked recompute never ran")
			}
			c.Advance(100 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
	// Settle: the driver must have re-parked no later than the staged
	// deadline (about 6 s in; without the poke it naps to about 61 s).
	settle := time.Now().Add(5 * time.Second)
	for rt.parkedUntil.Load() == notParked || len(rt.wake) > 0 || rt.parkedUntil.Load() > 7_000 {
		if time.Now().After(settle) {
			t.Fatalf("driver parked until tick %d, past the staged 5 s timer", rt.parkedUntil.Load())
		}
		time.Sleep(time.Millisecond)
	}
	c.Advance(6 * time.Second)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("staged timer never fired")
	}
}

// TestTicklessDeepRingWakesDriver: staged intents later than the
// driver's sleep do not wake it one by one, but a ring a quarter full
// does, so the driver drains the backlog alongside the producers
// instead of one of them finding the ring full and applying it all
// under the lock.
func TestTicklessDeepRingWakesDriver(t *testing.T) {
	c := &recomputeCountingClock{Fake: clock.NewFake(time.Time{})}
	rt := NewRuntime(
		WithGranularity(time.Millisecond),
		WithScheme(NewHierarchicalWheel([]int{256, 64, 64, 64, 64}, MigrateAlways)),
		WithTickless(),
		WithIngress(64),
		WithClockSource(c),
	)
	c.rt.Store(rt)
	defer rt.Close()
	if _, err := rt.AfterFunc(time.Hour, func() {}); err != nil {
		t.Fatal(err)
	}
	c.waitParked(t)
	polls := rt.Snapshot().TickBatch.Count
	for i := 0; i < 15; i++ {
		if _, err := rt.AfterFunc(2*time.Hour, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a (wrong) wakeup to drain
	if n := rt.Snapshot().IngressStaged; n != 15 {
		t.Fatalf("%d of 15 late intents staged, want all: the driver woke early", n)
	}
	if _, err := rt.AfterFunc(2*time.Hour, func() {}); err != nil { // the 16th: a quarter of 64
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.Snapshot().IngressStaged != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("a quarter-full ring never woke the driver: %d staged", rt.Snapshot().IngressStaged)
		}
		time.Sleep(time.Millisecond)
	}
	if n := rt.Snapshot().TickBatch.Count; n != polls {
		t.Fatalf("draining the ring cost %d polls, want a recompute only", n-polls)
	}
}
