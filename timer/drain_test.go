package timer

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDrainCancelAll(t *testing.T) {
	rt, _ := newManualRuntime(t)
	for i := 0; i < 3; i++ {
		if _, err := rt.AfterFunc(time.Hour, func() { t.Error("cancelled timer fired") }); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Drain(context.Background(), DrainCancelAll)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fired != 0 || rep.Cancelled != 3 {
		t.Fatalf("report=%s, want 0 fired, 3 cancelled", rep)
	}
	if h := rt.Health(); h.AbandonedOnClose != 3 {
		t.Fatalf("AbandonedOnClose=%d, want 3", h.AbandonedOnClose)
	}
	if _, err := rt.AfterFunc(time.Second, func() {}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("post-drain AfterFunc: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close after Drain must be a nil no-op: %v", err)
	}
}

func TestDrainFireNowRunsInDeadlineOrder(t *testing.T) {
	rt, _ := newManualRuntime(t)
	var order []string
	if _, err := rt.AfterFunc(2*time.Hour, func() { order = append(order, "late") }); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AfterFunc(time.Hour, func() { order = append(order, "early") }); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Drain(context.Background(), DrainFireNow)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fired != 2 || rep.Cancelled != 0 {
		t.Fatalf("report=%s, want 2 fired, 0 cancelled", rep)
	}
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("fire order=%v: FireNow must preserve deadline order", order)
	}
	if h := rt.Health(); h.AbandonedOnClose != 0 {
		t.Fatalf("AbandonedOnClose=%d after full FireNow drain", h.AbandonedOnClose)
	}
}

func TestDrainFireNowHonorsContextCutoff(t *testing.T) {
	rt, _ := newManualRuntime(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: nothing may fire
	fired := 0
	if _, err := rt.AfterFunc(time.Hour, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Drain(ctx, DrainFireNow)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 0 || rep.Fired != 0 || rep.Cancelled != 1 {
		t.Fatalf("fired=%d report=%s, want everything cancelled at the cut-off", fired, rep)
	}
}

// TestDrainWaitUntilDeadline: a timer whose deadline falls inside the
// grace window fires at its natural deadline; when the window closes the
// rest are cancelled, and the Fired/Cancelled split is exact in both the
// report and Health().
func TestDrainWaitUntilDeadline(t *testing.T) {
	rt, fc := newManualRuntime(t)
	var inWindow atomic.Bool
	if _, err := rt.AfterFunc(30*time.Millisecond, func() { inWindow.Store(true) }); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AfterFunc(10*time.Hour, func() { t.Error("timer beyond the grace window fired") }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rep DrainReport
	var drainErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep, drainErr = rt.Drain(ctx, DrainWaitUntilDeadline)
	}()
	fc.Advance(30 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for !inWindow.Load() {
		if time.Now().After(deadline) {
			t.Fatal("in-window timer did not fire during the drain")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // close the grace window; the 10h timer must be cancelled
	<-done
	if drainErr != nil {
		t.Fatal(drainErr)
	}
	if rep.Fired != 1 || rep.Cancelled != 1 {
		t.Fatalf("report=%s, want 1 fired, 1 cancelled", rep)
	}
	h := rt.Health()
	if h.AbandonedOnClose != 1 || h.Delivered != 1 {
		t.Fatalf("health after drain: delivered=%d abandoned=%d, want 1/1", h.Delivered, h.AbandonedOnClose)
	}
	started, expired, stopped := rt.Stats()
	if started != expired+stopped+uint64(rt.Outstanding())+h.AbandonedOnClose {
		t.Fatalf("conservation broken after drain: started=%d expired=%d stopped=%d abandoned=%d",
			started, expired, stopped, h.AbandonedOnClose)
	}
}

// TestDrainConcurrentSingleWinner: of several racing Drain calls exactly
// one performs the shutdown; the rest block until it finishes and report
// ErrDraining/ErrRuntimeClosed.
func TestDrainConcurrentSingleWinner(t *testing.T) {
	rt := NewRuntime(WithGranularity(time.Millisecond))
	if _, err := rt.AfterFunc(time.Hour, func() {}); err != nil {
		t.Fatal(err)
	}
	const racers = 8
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = rt.Drain(context.Background(), DrainCancelAll)
		}(i)
	}
	wg.Wait()
	winners := 0
	for _, err := range errs {
		switch {
		case err == nil:
			winners++
		case errors.Is(err, ErrDraining) || errors.Is(err, ErrRuntimeClosed):
		default:
			t.Fatalf("unexpected drain error: %v", err)
		}
	}
	if winners != 1 {
		t.Fatalf("%d drains claimed the shutdown, want exactly 1", winners)
	}
	if _, err := rt.Drain(context.Background(), DrainCancelAll); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("Drain on closed runtime: %v", err)
	}
}

func TestShardedDrainAggregates(t *testing.T) {
	s := NewSharded(3, WithManualDriver())
	var fired atomic.Int64
	const n = 9
	for i := 0; i < n; i++ {
		if _, err := s.AfterFuncKey(uint64(i), time.Hour, func() { fired.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Drain(context.Background(), DrainFireNow)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fired != n || rep.Cancelled != 0 {
		t.Fatalf("aggregate report=%s, want %d fired across shards", rep, n)
	}
	if fired.Load() != n {
		t.Fatalf("%d/%d actions ran", fired.Load(), n)
	}
	if _, err := s.AfterFunc(time.Second, func() {}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("post-drain Sharded.AfterFunc: %v", err)
	}
	// A second group drain reports the terminal error but still sums.
	if _, err := s.Drain(context.Background(), DrainCancelAll); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("second Sharded.Drain: %v", err)
	}
}

func TestShardedDrainCancelAllAbandons(t *testing.T) {
	s := NewSharded(2, WithManualDriver())
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := s.AfterFuncKey(uint64(i), time.Hour, func() { t.Error("fired") }); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Drain(context.Background(), DrainCancelAll)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cancelled != n || rep.Fired != 0 {
		t.Fatalf("report=%s, want %d cancelled", rep, n)
	}
	if h := s.Health(); h.AbandonedOnClose != n {
		t.Fatalf("aggregate AbandonedOnClose=%d, want %d", h.AbandonedOnClose, n)
	}
}
