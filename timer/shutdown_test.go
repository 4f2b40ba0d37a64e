package timer

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestOverloadShardHealthSumsToAggregate (sharded observability): after a
// shutdown the per-shard snapshots must sum, field for field, to the
// aggregate Health.
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
	if got := sum.Delivered + sum.AbandonedOnClose; got != n {
		t.Fatalf("delivered+abandoned=%d, want %d", got, n)
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
