package timer

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every scheduling entry point must fail with ErrRuntimeClosed after
// Close, Close must be idempotent (including concurrently), and async
// dispatch must drain queued expiry actions before Close returns.

func TestPostCloseEveryPathReturnsErrRuntimeClosed(t *testing.T) {
	rt, fc := newManualRuntime(t)
	tm, err := rt.AfterFunc(time.Hour, func() { t.Error("fired after Close") })
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal("second Close must be a nil-error no-op")
	}

	if _, err := rt.AfterFunc(time.Second, func() {}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("AfterFunc: %v", err)
	}
	if _, err := rt.Schedule(1, func() {}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("Schedule: %v", err)
	}
	if _, err := rt.After(time.Second); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("After: %v", err)
	}
	if _, err := rt.Every(time.Second, func() {}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("Every: %v", err)
	}
	if _, err := tm.Reset(time.Second); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("Reset: %v", err)
	}
	if tm.Stop() {
		t.Fatal("Stop after Close should report false (the timer will never fire)")
	}
	fc.Advance(2 * time.Hour)
	if rt.Poll() != 0 {
		t.Fatal("Poll after Close should be a no-op")
	}
	// Introspection still works on a closed runtime.
	_ = rt.Health()
	_ = rt.Outstanding()
	if started, _, _ := rt.Stats(); started != 1 {
		t.Fatalf("Stats unreadable after Close: started=%d", started)
	}
}

func TestCloseConcurrent(t *testing.T) {
	for _, mode := range []string{"ticking", "tickless", "manual", "async"} {
		t.Run(mode, func(t *testing.T) {
			var opts []RuntimeOption
			switch mode {
			case "ticking":
				opts = []RuntimeOption{WithGranularity(time.Millisecond)}
			case "tickless":
				opts = []RuntimeOption{WithGranularity(time.Millisecond), WithScheme(NewTree(TreeHeap)), WithTickless()}
			case "manual":
				opts = []RuntimeOption{WithManualDriver()}
			case "async":
				opts = []RuntimeOption{WithGranularity(time.Millisecond), WithAsyncDispatch(2, 8)}
			}
			rt := NewRuntime(opts...)
			if _, err := rt.AfterFunc(time.Hour, func() {}); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := rt.Close(); err != nil {
						t.Errorf("concurrent Close: %v", err)
					}
				}()
			}
			wg.Wait()
			if _, err := rt.AfterFunc(time.Second, func() {}); !errors.Is(err, ErrRuntimeClosed) {
				t.Fatalf("post-close AfterFunc: %v", err)
			}
		})
	}
}

func TestCloseDrainsAsyncQueue(t *testing.T) {
	// Expiries already handed to the pool are commitments: Close must run
	// them before returning, even with the worker backed up.
	rt, fc := newChaosRuntime(t, WithAsyncDispatch(1, 8))
	gate := make(chan struct{})
	running := make(chan struct{})
	var ran atomic.Int64
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { close(running); <-gate; ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	<-running
	for i := 0; i < 4; i++ {
		if _, err := rt.AfterFunc(10*time.Millisecond, func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll() // 4 actions queued behind the blocked worker
	go func() {
		time.Sleep(20 * time.Millisecond) // let Close start waiting
		close(gate)
	}()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 5 {
		t.Fatalf("Close returned with %d/5 queued actions run", ran.Load())
	}
}

func TestShardedCloseIdempotentAndPostClose(t *testing.T) {
	s := NewSharded(3, WithManualDriver())
	if _, err := s.AfterFunc(time.Hour, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Sharded.Close must be a nil-error no-op")
	}
	if _, err := s.AfterFunc(time.Second, func() {}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("AfterFunc: %v", err)
	}
	if _, err := s.AfterFuncKey(42, time.Second, func() {}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("AfterFuncKey: %v", err)
	}
	if _, err := s.Every(time.Second, func() {}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("Every: %v", err)
	}
	if _, err := s.EveryKey(42, time.Second, func() {}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("EveryKey: %v", err)
	}
	// Aggregation still works on a closed group.
	_ = s.Health()
	if started, _, _ := s.Stats(); started != 1 {
		t.Fatalf("Stats after Close: started=%d", started)
	}
}

// TestResetCloseRace hammers Reset against a concurrent Close (satellite
// of the overload work; run under -race). The losing side must fail
// cleanly — ErrDraining while the shutdown is in flight, ErrRuntimeClosed
// after — never panic, deadlock, or corrupt the free list. The sweep
// covers the default hashed wheel, the grouped sorting queue, and the
// hybrid wheel: three placement rules under the same in-place Reset.
func TestResetCloseRace(t *testing.T) {
	schemes := map[string]func() []RuntimeOption{
		"wheel": func() []RuntimeOption { return nil },
		"gsq": func() []RuntimeOption {
			return []RuntimeOption{WithScheme(NewGroupedQueue(64, 8))}
		},
		"hybrid": func() []RuntimeOption {
			return []RuntimeOption{WithScheme(NewHybridWheel(64))}
		},
	}
	for name, mkOpts := range schemes {
		t.Run(name, func(t *testing.T) { runResetCloseRace(t, mkOpts) })
	}
}

func runResetCloseRace(t *testing.T, mkOpts func() []RuntimeOption) {
	iters := 50
	if testing.Short() {
		iters = 10
	}
	for iter := 0; iter < iters; iter++ {
		rt := NewRuntime(append([]RuntimeOption{
			WithGranularity(time.Millisecond),
		}, mkOpts()...)...)
		tm, err := rt.AfterFunc(time.Hour, func() {})
		if err != nil {
			t.Fatal(err)
		}
		const resetters = 4
		errs := make([]error, resetters)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < resetters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					if _, err := tm.Reset(time.Hour); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rt.Close()
		}()
		close(start)
		wg.Wait()
		for g, err := range errs {
			if err != nil && !errors.Is(err, ErrRuntimeClosed) && !errors.Is(err, ErrDraining) {
				t.Fatalf("iter %d goroutine %d: Reset lost the race with %v", iter, g, err)
			}
		}
		// Terminal state: Reset must now fail with the closed error, and
		// Stop must report false (the timer will never fire).
		if _, err := tm.Reset(time.Second); !errors.Is(err, ErrRuntimeClosed) {
			t.Fatalf("iter %d: Reset after Close: %v", iter, err)
		}
		if tm.Stop() {
			t.Fatalf("iter %d: Stop after Close reported true", iter)
		}
	}
}

func TestTickerStopAfterClose(t *testing.T) {
	rt, _ := newManualRuntime(t)
	tk, err := rt.Every(10*time.Millisecond, func() {})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	tk.Stop() // must not panic or deadlock on a closed runtime
}
