package timer

import (
	"time"

	"timingwheels/internal/hdr"
)

// HistogramSnapshot is a point-in-time copy of one of the runtime's
// latency/size histograms: log-linear buckets (relative quantization
// error <= 1/32) with exact Count, Sum, Min, and Max, answering
// Quantile/P50/P99/P999 queries and merging across shards. See
// internal/hdr for the representation.
type HistogramSnapshot = hdr.Snapshot

// WheelStats is the gauge view of the scheme's internal geometry — the
// quantities the paper's cost model is parameterized on (slot
// occupancy n/TableSize, hierarchy level populations, migration
// counts), read from schemes that expose them. Fields are zero for
// schemes without the corresponding structure.
type WheelStats struct {
	// Slots is the wheel's slot count (Scheme 4/5/6 tables, the hybrid
	// wheel, or a hierarchy's finest level); 0 for list/tree schemes.
	Slots int
	// OccupiedSlots counts slots holding at least one timer.
	OccupiedSlots int
	// MaxSlotDepth is the deepest slot's timer count — the worst-case
	// per-tick burst a single slot can contribute.
	MaxSlotDepth int
	// LevelOccupancy is the per-level timer population of a
	// hierarchical scheme (finest first); nil otherwise.
	LevelOccupancy []int
	// Migrations counts inter-level moves (Scheme 7's cascades) or
	// overflow-to-wheel promotions (the hybrid scheme) — the c(7)*m
	// work term of section 6.2, live.
	Migrations uint64
}

// Snapshot is the full typed observability view of one runtime (or,
// merged, of a Sharded facility): lifetime counters, hardening health,
// the three telemetry histograms, and the scheme's occupancy gauges.
// It is what telemetry.Handler exports and cmd/twtop renders.
type Snapshot struct {
	// Scheme is the facility's Name().
	Scheme string
	// Shards is the number of runtimes merged into this snapshot (1
	// for a single Runtime).
	Shards int
	// Granularity is the tick length.
	Granularity time.Duration
	// Now is the facility's virtual time, in ticks (the maximum across
	// shards for a merged snapshot).
	Now Tick
	// Outstanding is the number of pending timers.
	Outstanding int
	// Started, Expired, Stopped are the lifetime counters of Stats.
	Started, Expired, Stopped uint64
	// Health is the hardening counter snapshot (shard-summed when
	// merged).
	Health Health
	// FiringLagNS distributes deadline-to-delivery lag in nanoseconds
	// (whole ticks of lag times the granularity; 0 = delivered within
	// its deadline tick).
	FiringLagNS HistogramSnapshot
	// CallbackNS distributes expiry-action run time in nanoseconds.
	CallbackNS HistogramSnapshot
	// TickBatch distributes expiries delivered per poll, including
	// zero-expiry polls — its shape is the paper's per-tick burstiness
	// argument measured live (most polls empty, tails bounded).
	TickBatch HistogramSnapshot
	// Wheel is the scheme-geometry gauge view.
	Wheel WheelStats
}

// Optional views schemes may implement; Snapshot type-asserts for them
// (unwrapping Instrument-style wrappers) and degrades to zero gauges
// when absent.
type (
	occupancyReporter interface{ Occupancy() []int }
	levelReporter     interface{ LevelOccupancy() []int }
	migrationCounter  interface{ MigrationCount() uint64 }
	schemeUnwrapper   interface{ Unwrap() Scheme }
)

// wheelStatsOf collects gauges from whatever the scheme exposes. The
// caller holds rt.mu (facilities are single-threaded).
func wheelStatsOf(fac Scheme) WheelStats {
	for {
		w, ok := fac.(schemeUnwrapper)
		if !ok {
			break
		}
		fac = w.Unwrap()
	}
	var ws WheelStats
	if oc, ok := fac.(occupancyReporter); ok {
		occ := oc.Occupancy()
		ws.Slots = len(occ)
		for _, n := range occ {
			if n > 0 {
				ws.OccupiedSlots++
			}
			if n > ws.MaxSlotDepth {
				ws.MaxSlotDepth = n
			}
		}
	}
	if lr, ok := fac.(levelReporter); ok {
		ws.LevelOccupancy = lr.LevelOccupancy()
	}
	if mc, ok := fac.(migrationCounter); ok {
		ws.Migrations = mc.MigrationCount()
	}
	return ws
}

// Snapshot returns the full observability view: Stats and Health plus
// the firing-lag, callback-duration, queue-wait, and tick-batch
// histograms and the scheme's occupancy gauges. Safe to call
// concurrently with scheduling and delivery; the histograms keep
// recording while the snapshot is taken (counts never go backwards,
// but the set of reads is not a consistent cut). Snapshot allocates —
// it is the read path, not the hot path.
func (rt *Runtime) Snapshot() Snapshot {
	h := rt.Health()
	rt.mu.Lock()
	s := Snapshot{
		Scheme:      rt.fac.Name(),
		Shards:      1,
		Granularity: rt.wall.Granularity(),
		Now:         rt.fac.Now(),
		Started:     rt.started,
		Stopped:     rt.stopped,
		Outstanding: rt.outstandingLocked(),
		Wheel:       wheelStatsOf(rt.fac),
	}
	rt.mu.Unlock()
	s.Health = h
	s.Expired = h.Delivered
	s.FiringLagNS = rt.lagHist.Snapshot()
	s.CallbackNS = rt.durHist.Snapshot()
	s.TickBatch = rt.batchHist.Snapshot()
	return s
}

// Snapshot merges every shard's snapshot into one facility-wide view:
// counters and gauges sum, histograms merge bucket-wise (quantiles are
// then over the union of observations), Now is the furthest shard's
// virtual time, and Scheme/Granularity come from the first shard (all
// shards are built from the same options).
func (s *Sharded) Snapshot() Snapshot {
	var out Snapshot
	for i := range s.shards {
		sh := s.shards[i].rt.Snapshot()
		if i == 0 {
			out = sh
			continue
		}
		out.Shards += sh.Shards
		if sh.Now > out.Now {
			out.Now = sh.Now
		}
		out.Outstanding += sh.Outstanding
		out.Started += sh.Started
		out.Expired += sh.Expired
		out.Stopped += sh.Stopped
		addHealth(&out.Health, sh.Health)
		out.FiringLagNS.Merge(sh.FiringLagNS)
		out.CallbackNS.Merge(sh.CallbackNS)
		out.TickBatch.Merge(sh.TickBatch)
		out.Wheel.Slots += sh.Wheel.Slots
		out.Wheel.OccupiedSlots += sh.Wheel.OccupiedSlots
		if sh.Wheel.MaxSlotDepth > out.Wheel.MaxSlotDepth {
			out.Wheel.MaxSlotDepth = sh.Wheel.MaxSlotDepth
		}
		for l, n := range sh.Wheel.LevelOccupancy {
			if l < len(out.Wheel.LevelOccupancy) {
				out.Wheel.LevelOccupancy[l] += n
			}
		}
		out.Wheel.Migrations += sh.Wheel.Migrations
	}
	return out
}
