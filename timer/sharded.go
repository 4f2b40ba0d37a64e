package timer

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// shardSlot pads each shard pointer out to its own cache line (64 bytes
// on the platforms we target), so the per-shard mutex/counter traffic of
// adjacent shards never false-shares the line holding a neighbour's
// pointer.
type shardSlot struct {
	rt *Runtime
	_  [64 - 8]byte
}

// Sharded spreads timers across several independent Runtimes, one per
// shard, reflecting the symmetric-multiprocessing observation of
// Appendix A.2: Scheme 2's single ordered list serializes all processors
// behind one semaphore, while "Schemes 5, 6, and 7 seem suited for
// implementation in symmetric multiprocessors" — each shard owns its own
// wheel and lock, so concurrent StartTimer calls rarely contend.
type Sharded struct {
	shards []shardSlot
	// next is the round-robin cursor: the one write-hot word every
	// scheduling goroutine touches. Padding on both sides keeps it off
	// the (read-only, but constantly loaded) slice header's line.
	_    [64]byte
	next atomic.Uint64
	_    [64]byte
}

// NewSharded starts n independent runtimes (n >= 1), each configured by
// the same options. New timers are assigned round-robin.
func NewSharded(n int, opts ...RuntimeOption) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]shardSlot, n)}
	for i := range s.shards {
		s.shards[i].rt = NewRuntime(opts...)
	}
	return s
}

// Shards reports the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// pick selects a shard round-robin.
func (s *Sharded) pick() *Runtime {
	i := s.next.Add(1) - 1
	return s.shards[i%uint64(len(s.shards))].rt
}

// AfterFunc schedules fn on some shard, d from now.
func (s *Sharded) AfterFunc(d time.Duration, fn func(), opts ...ScheduleOption) (*Timer, error) {
	return s.pick().AfterFunc(d, fn, opts...)
}

// AfterFuncKey schedules fn on the shard owned by key, so all timers of
// one entity (e.g. one connection) share a lock and fire in order
// relative to each other — the per-connection affinity a multiprocessor
// timer service wants (Appendix A.2's per-structure locking, applied at
// shard granularity).
func (s *Sharded) AfterFuncKey(key uint64, d time.Duration, fn func(), opts ...ScheduleOption) (*Timer, error) {
	return s.shardFor(key).AfterFunc(d, fn, opts...)
}

// EveryKey schedules a periodic fn on the shard owned by key.
func (s *Sharded) EveryKey(key uint64, period time.Duration, fn func(), opts ...ScheduleOption) (*Ticker, error) {
	return s.shardFor(key).Every(period, fn, opts...)
}

// shardFor maps a key to its owning shard with a splitmix-style mix so
// adjacent keys spread.
func (s *Sharded) shardFor(key uint64) *Runtime {
	x := key
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return s.shards[x%uint64(len(s.shards))].rt
}

// Every schedules fn periodically on some shard.
func (s *Sharded) Every(period time.Duration, fn func(), opts ...ScheduleOption) (*Ticker, error) {
	return s.pick().Every(period, fn, opts...)
}

// Outstanding reports pending timers across all shards.
func (s *Sharded) Outstanding() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].rt.Outstanding()
	}
	return total
}

// Stats aggregates lifetime counters across all shards.
func (s *Sharded) Stats() (started, expired, stopped uint64) {
	for i := range s.shards {
		b, e, x := s.shards[i].rt.Stats()
		started += b
		expired += e
		stopped += x
	}
	return started, expired, stopped
}

// Health aggregates hardening counters across all shards: counts and
// TicksBehind sum, and LastAnomaly is the most recently observed anomaly
// on any shard. A wall-clock anomaly typically shows up on every shard
// (they share the host clock), so Anomalies counts shard observations,
// not distinct host events.
func (s *Sharded) Health() Health {
	var h Health
	for i := range s.shards {
		addHealth(&h, s.shards[i].rt.Health())
	}
	return h
}

// addHealth accumulates one shard's snapshot into the aggregate.
func addHealth(h *Health, sh Health) {
	h.PanicsRecovered += sh.PanicsRecovered
	h.SlowCallbacks += sh.SlowCallbacks
	h.Delivered += sh.Delivered
	h.AbandonedOnClose += sh.AbandonedOnClose
	h.TicksBehind += sh.TicksBehind
	h.Anomalies += sh.Anomalies
	if sh.LastAnomaly.Kind != AnomalyNone &&
		(h.LastAnomaly.Kind == AnomalyNone || sh.LastAnomaly.Wall.After(h.LastAnomaly.Wall)) {
		h.LastAnomaly = sh.LastAnomaly
	}
}

// ShardHealth returns each shard's own Health snapshot, indexed by shard.
// Health() equals the field-wise sum of these (with LastAnomaly the most
// recent across shards) — the per-shard view is what reveals a hot shard
// whose delivery or catch-up counters dominate an otherwise healthy sum.
func (s *Sharded) ShardHealth() []Health {
	out := make([]Health, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].rt.Health()
	}
	return out
}

// Close shuts every shard down. It is idempotent: every call blocks
// until all shards have fully stopped, and scheduling calls on any shard afterwards fail with
// ErrRuntimeClosed.
func (s *Sharded) Close() error {
	for i := range s.shards {
		s.shards[i].rt.Close() // Close never fails; it blocks until the shard stops.
	}
	return nil
}

// Drain gracefully shuts every shard down under the same policy,
// concurrently — the ctx deadline bounds the whole drain, not each shard
// in turn. The aggregate report sums each shard's Fired/Cancelled.
// The first shard error (ErrDraining/ErrRuntimeClosed from a concurrent
// shutdown) is returned alongside whatever the other shards reported.
func (s *Sharded) Drain(ctx context.Context, policy DrainPolicy) (DrainReport, error) {
	reports := make([]DrainReport, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = s.shards[i].rt.Drain(ctx, policy)
		}(i)
	}
	wg.Wait()
	agg := DrainReport{Policy: policy}
	var firstErr error
	for i := range reports {
		agg.Fired += reports[i].Fired
		agg.Cancelled += reports[i].Cancelled
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	return agg, firstErr
}
