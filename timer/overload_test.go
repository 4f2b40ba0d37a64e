package timer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"timingwheels/internal/chaos"
)

// The overload tests drive the runtime into sustained saturation with the
// async dispatch pool's single worker deliberately parked on a gate: after
// the plug timer below is in the worker's hands, the queue never pops, so
// every admit/evict/shed decision is a pure function of submission order —
// the property the determinism soak asserts, and the lever the other tests
// use to make shed counts exact.

// plugWorker schedules one Normal-class timer whose action blocks on gate,
// fires it, and waits until the pool worker is holding it. The returned
// gate must be closed before rt.Close (Close drains the queue through the
// same worker).
func plugWorker(t *testing.T, rt *Runtime, clk *chaos.Clock) chan struct{} {
	t.Helper()
	gate := make(chan struct{})
	running := make(chan struct{})
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { close(running); <-gate }); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	rt.Poll()
	<-running
	return gate
}

func newOverloadRuntime(t *testing.T, opts ...RuntimeOption) (*Runtime, *chaos.Clock) {
	t.Helper()
	clk := chaos.NewManual(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	opts = append([]RuntimeOption{
		WithGranularity(10 * time.Millisecond),
		WithNowFunc(clk.Now),
		WithManualDriver(),
	}, opts...)
	rt := NewRuntime(opts...)
	return rt, clk
}

// TestOverloadShedDeterminismSoak replays a seeded overload trace twice —
// bursty scheduling across all three classes, clock jumps, retry/backoff
// in play, queue 10x oversubscribed — and requires the shed set (identity,
// class, deadline, retry count, in order) to be byte-identical across
// runs. Shedding under overload must be a policy, not a race.
func TestOverloadShedDeterminismSoak(t *testing.T) {
	run := func() string {
		var shedLog strings.Builder
		rt, clk := newOverloadRuntime(t,
			WithAsyncDispatch(1, 4),
			WithShedRetry(1, 10*time.Millisecond),
			WithShedHandler(func(si ShedInfo) {
				fmt.Fprintf(&shedLog, "id=%v class=%s deadline=%d retries=%d\n",
					si.ID, si.Priority, si.Deadline, si.Retries)
			}),
		)
		gate := plugWorker(t, rt, clk)

		rng := uint64(0xBADC0FFEE)
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		for round := 0; round < 60; round++ {
			burst := 3 + next(6)
			for i := 0; i < burst; i++ {
				p := Priority(next(3))
				fn := func() { <-gate }
				if p == PriorityCritical {
					fn = func() {} // inline fallback must not block the driver
				}
				d := time.Duration(1+next(4)) * 10 * time.Millisecond
				if _, err := rt.AfterFunc(d, fn, WithPriority(p)); err != nil {
					t.Fatal(err)
				}
			}
			if round%17 == 0 {
				clk.Jump(30 * time.Millisecond)
			}
			clk.Advance(10 * time.Millisecond)
			rt.Poll()
		}
		// Flush pending deadlines and retry re-arms.
		for i := 0; i < 64; i++ {
			clk.Advance(10 * time.Millisecond)
			rt.Poll()
		}
		close(gate)
		rt.Close()
		return shedLog.String()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("trace produced no sheds; overload was not exercised")
	}
	if a != b {
		t.Fatalf("same seed produced different shed sets:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestOverloadCriticalNeverShed saturates the queue at 10x its capacity
// under clock jumps and stalls and requires that not a single
// PriorityCritical expiry is shed — every one runs, inline on the driver
// if the pool cannot take it even by evicting weaker work.
func TestOverloadCriticalNeverShed(t *testing.T) {
	rt, clk := newOverloadRuntime(t, WithAsyncDispatch(1, 4))
	gate := plugWorker(t, rt, clk)

	rng := uint64(0x5EED)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	var scheduled [numPriorities]uint64
	const bursts, perBurst = 10, 5 // 50 timers vs queue capacity 4+1 in flight
	for round := 0; round < bursts; round++ {
		for i := 0; i < perBurst; i++ {
			p := Priority(next(3))
			fn := func() { <-gate }
			if p == PriorityCritical {
				fn = func() {}
			}
			d := time.Duration(1+next(3)) * 10 * time.Millisecond
			if _, err := rt.AfterFunc(d, fn, WithPriority(p)); err != nil {
				t.Fatal(err)
			}
			scheduled[p]++
		}
		switch round {
		case 3:
			clk.Jump(50 * time.Millisecond)
		case 6:
			clk.Stall()
		case 8:
			clk.Resume()
		}
		clk.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	for i := 0; i < 16; i++ {
		clk.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	close(gate)
	rt.Close() // runs everything still queued in the pool

	h := rt.Health()
	if h.ByClass[PriorityCritical].Shed != 0 {
		t.Fatalf("shed %d critical expiries; critical must never shed",
			h.ByClass[PriorityCritical].Shed)
	}
	if h.ByClass[PriorityCritical].Delivered != scheduled[PriorityCritical] {
		t.Fatalf("critical delivered=%d, scheduled=%d",
			h.ByClass[PriorityCritical].Delivered, scheduled[PriorityCritical])
	}
	if h.ByClass[PriorityBestEffort].Shed == 0 {
		t.Fatal("no best-effort sheds at 10x saturation; test is not saturating")
	}
}

// TestOverloadPerClassInvariant checks the per-class conservation law the
// soaks rely on: with every deadline reached and the pool drained, each
// class's scheduled count splits exactly into delivered + shed, and the
// global invariant started == delivered + shed + stopped + outstanding +
// abandoned still balances.
func TestOverloadPerClassInvariant(t *testing.T) {
	rt, clk := newOverloadRuntime(t, WithAsyncDispatch(1, 2))
	gate := plugWorker(t, rt, clk)

	var scheduled [numPriorities]uint64
	scheduled[PriorityNormal]++ // the plug
	var stopped uint64
	for i := 0; i < 30; i++ {
		p := Priority(i % 3)
		fn := func() { <-gate }
		if p == PriorityCritical {
			fn = func() {}
		}
		tm, err := rt.AfterFunc(time.Duration(1+i%4)*10*time.Millisecond, fn, WithPriority(p))
		if err != nil {
			t.Fatal(err)
		}
		scheduled[p]++
		if i%10 == 9 {
			if tm.Stop() {
				scheduled[p]--
				stopped++
			}
		}
	}
	for i := 0; i < 8; i++ {
		clk.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	close(gate)
	rt.Close()

	h := rt.Health()
	for p := 0; p < numPriorities; p++ {
		got := h.ByClass[p].Delivered + h.ByClass[p].Shed
		if got != scheduled[p] {
			t.Fatalf("class %s: delivered+shed=%d, scheduled=%d (health: %+v)",
				Priority(p), got, scheduled[p], h.ByClass[p])
		}
	}
	started, expired, stp := rt.Stats()
	if stp != stopped {
		t.Fatalf("stopped=%d, want %d", stp, stopped)
	}
	if started != expired+stp+uint64(rt.Outstanding())+h.AbandonedOnClose {
		t.Fatalf("conservation broken: started=%d expired=%d stopped=%d outstanding=%d abandoned=%d",
			started, expired, stp, rt.Outstanding(), h.AbandonedOnClose)
	}
}

// TestOverloadRetryBackoff pins the retry schedule tick by tick: a shed
// Normal expiry re-arms through the wheel after backoff, doubles the
// backoff per attempt, and after the budget is spent is definitively shed
// with the attempt count reported to the shed handler.
func TestOverloadRetryBackoff(t *testing.T) {
	var sheds []ShedInfo
	rt, clk := newOverloadRuntime(t,
		WithAsyncDispatch(1, 1),
		WithShedRetry(2, 20*time.Millisecond), // 2 ticks base backoff
		WithShedHandler(func(si ShedInfo) { sheds = append(sheds, si) }),
	)
	gate := plugWorker(t, rt, clk)
	defer func() { close(gate); rt.Close() }()

	// Pin the 1-slot queue with a Critical entry — a Normal newcomer can
	// never evict it, so the probe's refusals and re-arms are isolated
	// from queue churn. (It is admitted to an empty queue, so the blocking
	// action is safe: it never runs inline.)
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { <-gate }, WithPriority(PriorityCritical)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	step := func(wantRetried, wantShed uint64) {
		t.Helper()
		clk.Advance(10 * time.Millisecond)
		rt.Poll()
		h := rt.Health()
		if h.Retried != wantRetried || h.ByClass[PriorityNormal].Shed != wantShed {
			t.Fatalf("retried=%d shed=%d, want %d/%d", h.Retried, h.ByClass[PriorityNormal].Shed, wantRetried, wantShed)
		}
	}
	step(1, 0) // both fire; probe refused, first re-arm (backoff 2 ticks)
	step(1, 0) // backoff tick 1: nothing due
	step(2, 0) // backoff tick 2: fires, refused, second re-arm (backoff 4 ticks)
	step(2, 0)
	step(2, 0)
	step(2, 0)
	step(2, 1) // 4 ticks later: fires, refused, budget spent -> shed
	if len(sheds) != 1 {
		t.Fatalf("shed handler fired %d times, want 1", len(sheds))
	}
	si := sheds[0]
	if si.Priority != PriorityNormal || si.Retries != 2 {
		t.Fatalf("ShedInfo=%+v, want normal class with 2 retries", si)
	}
	if si.ID == 0 {
		t.Fatal("ShedInfo.ID must pin the shed firing's identity")
	}
}

// TestOverloadRetryYieldsToReset: a queued expiry whose timer the caller
// re-armed with Reset is evicted from the full dispatch queue. The shed
// retry must not arm the timer a second time — the caller's arm stands,
// the evicted expiry is a final shed, and the action runs once, at the
// reset deadline.
func TestOverloadRetryYieldsToReset(t *testing.T) {
	rt, clk := newOverloadRuntime(t,
		WithAsyncDispatch(1, 1),
		WithShedRetry(2, 20*time.Millisecond),
	)
	gate := plugWorker(t, rt, clk)
	var runs atomic.Int32
	b, err := rt.AfterFunc(10*time.Millisecond, func() { runs.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	rt.Poll() // b fires into the queue behind the plugged worker
	if wasPending, err := b.Reset(50 * time.Millisecond); err != nil || wasPending {
		t.Fatalf("Reset of a fired timer = (%v, %v), want (false, nil)", wasPending, err)
	}
	cRan := make(chan struct{})
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { close(cRan) }); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	rt.Poll() // the newcomer evicts b's queued expiry
	if h := rt.Health(); h.Retried != 0 || h.ByClass[PriorityNormal].Shed != 1 {
		t.Fatalf("retried=%d shed=%d, want 0/1", h.Retried, h.ByClass[PriorityNormal].Shed)
	}
	close(gate)
	<-cRan // the queue is empty again before b's reset deadline
	for i := 0; i < 10; i++ {
		clk.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	rt.Close()
	if got := runs.Load(); got != 1 {
		t.Fatalf("b's action ran %d times, want 1 (at the reset deadline)", got)
	}
	started, expired, stopped := rt.Stats()
	if started != 4 || expired != 4 || stopped != 0 {
		t.Fatalf("stats=%d/%d/%d, want 4/4/0; %s", started, expired, stopped, rt.Health())
	}
}

// TestOverloadBestEffortNeverRetries: retry budget is a Normal-class
// privilege; BestEffort work is shed on first refusal even with
// WithShedRetry configured.
func TestOverloadBestEffortNeverRetries(t *testing.T) {
	rt, clk := newOverloadRuntime(t,
		WithAsyncDispatch(1, 1),
		WithShedRetry(3, 10*time.Millisecond),
	)
	gate := plugWorker(t, rt, clk)
	defer func() { close(gate); rt.Close() }()

	if _, err := rt.AfterFunc(10*time.Millisecond, func() { <-gate }); err != nil {
		t.Fatal(err) // fills the queue
	}
	if _, err := rt.AfterFunc(10*time.Millisecond, func() { <-gate }, WithPriority(PriorityBestEffort)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	rt.Poll()
	h := rt.Health()
	if h.Retried != 0 {
		t.Fatalf("best-effort consumed %d retries", h.Retried)
	}
	if h.ByClass[PriorityBestEffort].Shed != 1 {
		t.Fatalf("best-effort shed=%d, want 1", h.ByClass[PriorityBestEffort].Shed)
	}
}

// TestOverloadShardHealthSumsToAggregate (sharded observability): the
// per-shard snapshots must sum, field for field, to the aggregate Health.
func TestOverloadShardHealthSumsToAggregate(t *testing.T) {
	s := NewSharded(4, WithGranularity(time.Millisecond))
	var ran atomic.Int64
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := s.AfterFuncKey(uint64(i), 2*time.Millisecond, func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d timers fired", ran.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close() // freeze every counter

	parts := s.ShardHealth()
	if len(parts) != s.Shards() {
		t.Fatalf("ShardHealth returned %d entries for %d shards", len(parts), s.Shards())
	}
	var sum Health
	for _, p := range parts {
		addHealth(&sum, p)
	}
	if agg := s.Health(); sum != agg {
		t.Fatalf("sum of shards != aggregate:\nsum: %+v\nagg: %+v", sum, agg)
	}
	if sum.Delivered != n {
		t.Fatalf("delivered=%d, want %d", sum.Delivered, n)
	}
}

// TestOverloadShardHealthDuringDrain reads ShardHealth and Health
// continuously while a Drain is in flight. Under -race this proves the
// per-shard read path is safe against the drain's counter writes; the
// consistency assertion is a sandwich — each counter summed from the
// shard snapshots must land between aggregate readings taken before and
// after it (counters are monotone) — with exact field-wise equality once
// the drain has quiesced everything.
func TestOverloadShardHealthDuringDrain(t *testing.T) {
	s := NewSharded(4, WithGranularity(time.Millisecond))
	const n = 400
	for i := 0; i < n; i++ {
		// Deadlines spread out so the fire-now drain has work in flight
		// while the readers run.
		if _, err := s.AfterFuncKey(uint64(i), time.Duration(1+i)*time.Millisecond, func() {}); err != nil {
			t.Fatal(err)
		}
	}

	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		if _, err := s.Drain(context.Background(), DrainFireNow); err != nil {
			t.Errorf("Drain: %v", err)
		}
	}()

	for done := false; !done; {
		select {
		case <-drainDone:
			done = true
		default:
		}
		before := s.Health()
		parts := s.ShardHealth()
		after := s.Health()
		if len(parts) != s.Shards() {
			t.Fatalf("ShardHealth returned %d entries", len(parts))
		}
		var sum Health
		for _, p := range parts {
			addHealth(&sum, p)
		}
		check := func(name string, lo, mid, hi uint64) {
			if mid < lo || mid > hi {
				t.Fatalf("%s: shard sum %d outside aggregate window [%d, %d]", name, mid, lo, hi)
			}
		}
		check("Delivered", before.Delivered, sum.Delivered, after.Delivered)
		check("ShedExpiries", before.ShedExpiries, sum.ShedExpiries, after.ShedExpiries)
		check("Retried", before.Retried, sum.Retried, after.Retried)
		check("AbandonedOnClose", before.AbandonedOnClose, sum.AbandonedOnClose, after.AbandonedOnClose)
		check("PanicsRecovered", before.PanicsRecovered, sum.PanicsRecovered, after.PanicsRecovered)
	}

	// Quiescent: the sum must now match the aggregate exactly, and the
	// lifetime ledger must balance.
	parts := s.ShardHealth()
	var sum Health
	for _, p := range parts {
		addHealth(&sum, p)
	}
	if agg := s.Health(); sum != agg {
		t.Fatalf("after drain, sum of shards != aggregate:\nsum: %+v\nagg: %+v", sum, agg)
	}
	started, _, stopped := s.Stats()
	if started != n || stopped != 0 {
		t.Fatalf("started=%d stopped=%d, want %d/0", started, stopped, n)
	}
	if got := sum.Delivered + sum.ShedExpiries + sum.AbandonedOnClose; got != n {
		t.Fatalf("delivered+shed+abandoned=%d, want %d", got, n)
	}
}

// TestOverloadScheduleDuringDrainFails: every admission path refuses with
// ErrDraining once a drain has begun.
func TestOverloadScheduleDuringDrainFails(t *testing.T) {
	rt, _ := newManualRuntime(t)
	if _, err := rt.AfterFunc(time.Hour, func() {}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := rt.Drain(context.Background(), DrainCancelAll); err != nil {
			t.Errorf("Drain: %v", err)
		}
	}()
	// The drain wins quickly under CancelAll; afterwards the runtime is
	// closed. Catch the window if we can, but accept either refusal.
	for {
		_, err := rt.AfterFunc(time.Hour, func() {})
		if err == nil {
			// Lost the race to the draining flag; the new timer will be
			// cancelled by the drain. Try again.
			continue
		}
		if !errors.Is(err, ErrDraining) && !errors.Is(err, ErrRuntimeClosed) {
			t.Fatalf("schedule during drain: %v", err)
		}
		break
	}
	<-done
}
