package timer

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Expiry actions run outside the runtime lock precisely so they can call
// back into the runtime. These tests pin down the supported reentrant
// shapes: stopping yourself, stopping siblings, and scheduling new
// timers from inside a callback — deterministically and under -race.

func TestCallbackStopsItself(t *testing.T) {
	rt, fc := newManualRuntime(t)
	var tm *Timer
	var stopResult atomic.Bool
	var err error
	tm, err = rt.AfterFunc(10*time.Millisecond, func() {
		// The timer has already fired; Stop must report false and leave
		// the runtime consistent, not deadlock or double-count.
		stopResult.Store(tm.Stop())
	})
	if err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	if stopResult.Load() {
		t.Fatal("Stop from inside the timer's own callback should report false")
	}
	started, expired, stopped := rt.Stats()
	if started != 1 || expired != 1 || stopped != 0 {
		t.Fatalf("stats %d/%d/%d", started, expired, stopped)
	}
	if rt.Outstanding() != 0 {
		t.Fatalf("Outstanding=%d", rt.Outstanding())
	}
}

func TestCallbackStopsSiblings(t *testing.T) {
	rt, fc := newManualRuntime(t)
	var sibFired atomic.Int32
	sibs := make([]*Timer, 3)
	var err error
	for i := range sibs {
		if sibs[i], err = rt.AfterFunc(30*time.Millisecond, func() { sibFired.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.AfterFunc(10*time.Millisecond, func() {
		for _, s := range sibs {
			if !s.Stop() {
				t.Error("sibling Stop failed from inside a callback")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll() // killer fires, cancels the siblings
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	if sibFired.Load() != 0 {
		t.Fatalf("%d stopped siblings fired", sibFired.Load())
	}
	if rt.Outstanding() != 0 {
		t.Fatalf("Outstanding=%d", rt.Outstanding())
	}
}

func TestCallbackSchedulesChain(t *testing.T) {
	// Each firing schedules the next: a retry chain built entirely from
	// inside callbacks.
	rt, fc := newManualRuntime(t)
	const depth = 5
	var hops int
	var link func()
	link = func() {
		hops++
		if hops < depth {
			if _, err := rt.AfterFunc(10*time.Millisecond, link); err != nil {
				t.Errorf("hop %d: %v", hops, err)
			}
		}
	}
	if _, err := rt.AfterFunc(10*time.Millisecond, link); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth+2; i++ {
		fc.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	if hops != depth {
		t.Fatalf("chain ran %d/%d hops", hops, depth)
	}
}

func TestCallbackResetsSibling(t *testing.T) {
	// A callback pushing a sibling's deadline out — the watchdog-feeding
	// pattern — must take effect before the sibling's original deadline.
	rt, fc := newManualRuntime(t)
	var watchdogFired atomic.Bool
	watchdog, err := rt.AfterFunc(30*time.Millisecond, func() { watchdogFired.Store(true) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AfterFunc(20*time.Millisecond, func() {
		if _, err := watchdog.Reset(30 * time.Millisecond); err != nil {
			t.Errorf("Reset from callback: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll() // feeder fires, pushes watchdog to t=50ms
	fc.Advance(10 * time.Millisecond)
	rt.Poll() // t=30ms: original deadline — must not fire
	if watchdogFired.Load() {
		t.Fatal("watchdog fired at its pre-Reset deadline")
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll() // t=50ms
	if !watchdogFired.Load() {
		t.Fatal("watchdog never fired at its new deadline")
	}
}

func TestReentrancyLiveUnderRace(t *testing.T) {
	// Live drivers, concurrent external scheduling, and callbacks that
	// schedule children and stop shared victims — the full reentrant mix
	// the race detector should chew on (run via make check / make race).
	modes := map[string][]RuntimeOption{
		"sync": {WithGranularity(time.Millisecond), WithScheme(NewHashedWheel(512))},
	}
	for name, opts := range modes {
		t.Run(name, func(t *testing.T) {
			rt := NewRuntime(opts...)
			defer rt.Close()
			const chains = 40
			const depth = 3
			var done atomic.Int64
			var victims sync.Map // chain -> *Timer
			for i := 0; i < chains; i++ {
				i := i
				if tm, err := rt.AfterFunc(time.Hour, func() {}); err == nil {
					victims.Store(i, tm)
				}
				rng := rand.New(rand.NewSource(int64(i)))
				var hop func(level int)
				hop = func(level int) {
					if level == depth {
						// Tail of the chain: stop this chain's victim.
						if v, ok := victims.Load(i); ok {
							v.(*Timer).Stop()
						}
						done.Add(1)
						return
					}
					d := time.Duration(1+rng.Intn(3)) * time.Millisecond
					if _, err := rt.AfterFunc(d, func() { hop(level + 1) }); err != nil {
						t.Error(err)
					}
				}
				go hop(0)
			}
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) && done.Load() < chains {
				time.Sleep(2 * time.Millisecond)
			}
			if done.Load() != chains {
				t.Fatalf("%d/%d chains completed", done.Load(), chains)
			}
			if h := rt.Health(); h.PanicsRecovered != 0 {
				t.Fatalf("unexpected hardening events: %s", h)
			}
		})
	}
}
