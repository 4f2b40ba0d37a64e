package timingwheels

// Wall-clock benchmarks, one group per figure/table of the paper. The
// abstract-cost versions (instruction-count analogues) are produced by
// cmd/twbench; these report ns/op and allocs on real hardware.
//
//	Figure 4  -> BenchmarkFig4Start / BenchmarkFig4PerTick
//	Sec. 3.2  -> BenchmarkSec32InsertDistributions
//	Figure 6  -> BenchmarkFig6TreeStart
//	Sec. 5    -> BenchmarkScheme4Ops
//	Sec. 6.1  -> BenchmarkScheme5Start / BenchmarkScheme6Ops
//	Sec. 7    -> BenchmarkSec7Scheme6PerTick
//	Sec. 6.2  -> BenchmarkScheme7Ops / BenchmarkScheme6VsScheme7Lifetime
//	          -> BenchmarkScheme7Cascade (the coarse-slot migration burst)
//	Sec. 5    -> BenchmarkHybridOps (the wheel+overflow combination)
//	App. A.2  -> BenchmarkRuntimeConcurrent
//	Stdlib    -> BenchmarkVsStdlib (credibility check vs runtime timers)
//	Ablations -> BenchmarkAblationMaskVsMod / BenchmarkAblationRoundsVsAbsolute
//	          -> BenchmarkAblationMigrationPolicy / BenchmarkAblationBitmapAdvance

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timingwheels/internal/baseline"
	"timingwheels/internal/core"
	"timingwheels/internal/dist"
	"timingwheels/internal/gsq"
	"timingwheels/internal/hashwheel"
	"timingwheels/internal/hier"
	"timingwheels/internal/hybrid"
	"timingwheels/internal/stagetrace"
	"timingwheels/internal/tree"
	"timingwheels/internal/wal"
	"timingwheels/internal/wheel"
	"timingwheels/timer"
)

func noop(core.ID) {}

// preload fills a facility with n long-lived timers whose expiries are
// spread across slots/positions.
func preload(b *testing.B, f core.Facility, n int, maxInterval int64) {
	b.Helper()
	rng := dist.NewRNG(1987)
	for i := 0; i < n; i++ {
		iv := core.Tick(maxInterval/2 + int64(rng.Intn(int(maxInterval/2))))
		if _, err := f.StartTimer(iv, noop); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStartStop measures a StartTimer+StopTimer pair with n timers
// resident, which keeps the population constant across iterations.
func benchStartStop(b *testing.B, f core.Facility, n int, maxInterval int64) {
	b.Helper()
	preload(b, f, n, maxInterval)
	rng := dist.NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv := core.Tick(1 + rng.Intn(int(maxInterval)))
		h, err := f.StartTimer(iv, noop)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.StopTimer(h); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPerTick measures Tick with n long-lived timers resident.
func benchPerTick(b *testing.B, f core.Facility, n int) {
	b.Helper()
	preload(b, f, n, 1<<40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Tick()
	}
}

var benchNs = []int{64, 1024, 16384}

// BenchmarkFig4Start: Figure 4's START_TIMER column — Scheme 1 flat,
// Scheme 2 linear in n.
func BenchmarkFig4Start(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("scheme1/n=%d", n), func(b *testing.B) {
			benchStartStop(b, baseline.NewScheme1(nil), n, 1<<30)
		})
		b.Run(fmt.Sprintf("scheme2/n=%d", n), func(b *testing.B) {
			benchStartStop(b, baseline.NewScheme2(baseline.SearchFromFront, nil), n, 1<<30)
		})
	}
}

// BenchmarkFig4PerTick: Figure 4's PER_TICK_BOOKKEEPING column —
// Scheme 1 linear in n, Scheme 2 flat.
func BenchmarkFig4PerTick(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("scheme1/n=%d", n), func(b *testing.B) {
			benchPerTick(b, baseline.NewScheme1(nil), n)
		})
		b.Run(fmt.Sprintf("scheme2/n=%d", n), func(b *testing.B) {
			benchPerTick(b, baseline.NewScheme2(baseline.SearchFromFront, nil), n)
		})
	}
}

// BenchmarkSec32InsertDistributions: section 3.2's dependence of the
// ordered-list insert on the interval distribution and search direction.
func BenchmarkSec32InsertDistributions(b *testing.B) {
	const n = 1024
	cases := []struct {
		name string
		dir  baseline.SearchDirection
		iv   dist.Interval
	}{
		{"exp/front", baseline.SearchFromFront, dist.Exponential{MeanTicks: 1 << 20}},
		{"exp/rear", baseline.SearchFromRear, dist.Exponential{MeanTicks: 1 << 20}},
		{"uniform/front", baseline.SearchFromFront, dist.Uniform{Lo: 1, Hi: 1 << 21}},
		{"uniform/rear", baseline.SearchFromRear, dist.Uniform{Lo: 1, Hi: 1 << 21}},
		{"constant/rear", baseline.SearchFromRear, dist.Constant{Value: 1 << 20}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			f := baseline.NewScheme2(c.dir, nil)
			rng := dist.NewRNG(3)
			for i := 0; i < n; i++ {
				if _, err := f.StartTimer(core.Tick(c.iv.Draw(rng)), noop); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := f.StartTimer(core.Tick(c.iv.Draw(rng)), noop)
				if err != nil {
					b.Fatal(err)
				}
				if err := f.StopTimer(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6TreeStart: Figure 6 — tree-based START_TIMER at O(log n),
// plus the BST's degenerate case.
func BenchmarkFig6TreeStart(b *testing.B) {
	for _, kind := range []tree.Kind{
		tree.KindHeap, tree.KindLeftist, tree.KindSkew,
		tree.KindBST, tree.KindAVL, tree.KindPairing,
	} {
		for _, n := range benchNs {
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				benchStartStop(b, tree.NewScheme3(kind, nil), n, 1<<30)
			})
		}
	}
	// The degenerate case: constant intervals build a right spine.
	b.Run("bst-degenerate/n=4096", func(b *testing.B) {
		f := tree.NewScheme3(tree.KindBST, nil)
		for i := 0; i < 4096; i++ {
			if _, err := f.StartTimer(1<<30, noop); err != nil {
				b.Fatal(err)
			}
			f.Tick()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := f.StartTimer(1<<30, noop)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.StopTimer(h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScheme4Ops: section 5 — O(1) start/stop and per-tick within
// MaxInterval, independent of n.
func BenchmarkScheme4Ops(b *testing.B) {
	const size = 1 << 16
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("startstop/n=%d", n), func(b *testing.B) {
			benchStartStop(b, wheel.NewScheme4(size, nil), n, size)
		})
		b.Run(fmt.Sprintf("tick/n=%d", n), func(b *testing.B) {
			f := wheel.NewScheme4(size, nil)
			preload(b, f, n, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Tick()
			}
		})
	}
}

// BenchmarkScheme5Start: section 6.1.1 — sorted-bucket insert cost under
// a uniform hash vs the one-bucket adversary.
func BenchmarkScheme5Start(b *testing.B) {
	const size = 4096
	b.Run("uniform/n=1024", func(b *testing.B) {
		benchStartStop(b, hashwheel.NewScheme5(size, nil), 1024, 1<<30)
	})
	b.Run("one-bucket/n=1024", func(b *testing.B) {
		f := hashwheel.NewScheme5(size, nil)
		for i := 0; i < 1024; i++ {
			if _, err := f.StartTimer(core.Tick(size*(2+i)), noop); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := f.StartTimer(core.Tick(size*(2000+i%1000)), noop)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.StopTimer(h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScheme6Ops: section 6.1.2 — O(1) worst-case start/stop and
// amortized n/TableSize per-tick.
func BenchmarkScheme6Ops(b *testing.B) {
	const size = 4096
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("startstop/n=%d", n), func(b *testing.B) {
			benchStartStop(b, hashwheel.NewScheme6(size, nil), n, 1<<30)
		})
		b.Run(fmt.Sprintf("tick/n=%d", n), func(b *testing.B) {
			benchPerTick(b, hashwheel.NewScheme6(size, nil), n)
		})
	}
}

// BenchmarkSec7Scheme6PerTick: the section 7 cost model — per-tick time
// as the n/TableSize ratio sweeps (wall-clock analogue of twbench e6).
func BenchmarkSec7Scheme6PerTick(b *testing.B) {
	const size = 256
	for _, ratio := range []int{0, 1, 4, 16} {
		b.Run(fmt.Sprintf("ratio=%d", ratio), func(b *testing.B) {
			benchPerTick(b, hashwheel.NewScheme6(size, nil), ratio*size)
		})
	}
}

// BenchmarkScheme7Ops: section 6.2 — hierarchical start (O(m) level
// search) and per-tick with cascades.
func BenchmarkScheme7Ops(b *testing.B) {
	radices := []int{256, 64, 64, 64} // span 2^26
	const maxInterval = 1<<26 - 1
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("startstop/n=%d", n), func(b *testing.B) {
			benchStartStop(b, hier.NewScheme7(radices, hier.MigrateAlways, nil), n, maxInterval)
		})
		b.Run(fmt.Sprintf("tick/n=%d", n), func(b *testing.B) {
			f := hier.NewScheme7(radices, hier.MigrateAlways, nil)
			preload(b, f, n, maxInterval)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Tick()
			}
		})
	}
}

// BenchmarkScheme7Cascade: the section 6.2 burst. 100k residents 1-2 h
// out at 1 ms ticks sit on a coarse level; the benchmark times the one
// tick on which the fullest coarse slot comes due and all its timers
// migrate down a level at once. Each iteration builds the hierarchy
// afresh (ns/op is the whole cycle); cascade-ns isolates the burst
// tick. "twd" is the daemon's hierarchy (256^7 x 64, spanning 2^62
// ticks), "default" the five-level 256 x 64^4
// hierarchy, whose 17-minute third level gathers far more per slot.
func BenchmarkScheme7Cascade(b *testing.B) {
	const residents = 100_000
	rng := dist.NewRNG(7)
	intervals := make([]core.Tick, residents)
	for i := range intervals {
		intervals[i] = core.Tick(3_600_000 + rng.Intn(3_600_000))
	}
	for _, c := range []struct {
		name    string
		radices []int
	}{
		{"twd", []int{256, 256, 256, 256, 256, 256, 256, 64}},
		{"default", hier.DefaultRadices},
	} {
		b.Run(c.name, func(b *testing.B) {
			var burst time.Duration
			var moved uint64
			for i := 0; i < b.N; i++ {
				s := hier.NewScheme7(c.radices, hier.MigrateAlways, nil)
				for _, iv := range intervals {
					if _, err := s.StartTimer(iv, noop); err != nil {
						b.Fatal(err)
					}
				}
				s.Advance(fullestCascade(s, c.radices) - 1)
				before := s.Migrations
				start := time.Now()
				s.Tick()
				burst += time.Since(start)
				moved = s.Migrations - before
			}
			b.ReportMetric(float64(moved), "timers/cascade")
			b.ReportMetric(float64(burst.Nanoseconds())/float64(b.N), "cascade-ns")
			b.ReportMetric(float64(burst.Nanoseconds())/float64(b.N)/float64(moved), "ns/timer")
		})
	}
}

// fullestCascade reports the tick at which a freshly loaded hierarchy
// (Now 0) cascades its fullest coarse slot: slot j of level k comes due
// at j times the level's granularity, slot 0 one revolution later.
func fullestCascade(s *hier.Scheme7, radices []int) core.Tick {
	var at core.Tick
	best := -1
	gran := core.Tick(radices[0])
	for k := 1; k < len(radices); k++ {
		for j, n := range s.SlotOccupancy(k) {
			if n > best {
				best = n
				at = core.Tick(j) * gran
				if j == 0 {
					at = core.Tick(radices[k]) * gran
				}
			}
		}
		gran *= core.Tick(radices[k])
	}
	return at
}

// BenchmarkScheme6VsScheme7Lifetime: the section 6.2 trade-off measured
// as total time to run a full load/expire cycle of long timers at equal
// memory.
func BenchmarkScheme6VsScheme7Lifetime(b *testing.B) {
	const meanT = 1 << 17
	const n = 1024
	run := func(b *testing.B, f core.Facility) {
		b.Helper()
		rng := dist.NewRNG(5)
		fired := 0
		for i := 0; i < n; i++ {
			iv := core.Tick(1 + rng.Intn(meanT))
			if _, err := f.StartTimer(iv, func(core.ID) { fired++ }); err != nil {
				b.Fatal(err)
			}
		}
		for fired < n {
			f.Tick()
		}
	}
	b.Run("scheme6/M=256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, hashwheel.NewScheme6(256, nil))
		}
	})
	b.Run("scheme7/M=256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, hier.NewScheme7([]int{64, 64, 64, 64}, hier.MigrateAlways, nil))
		}
	})
}

// BenchmarkHybridOps: the section 5 wheel+overflow combination — wheel
// constants for short timers, one migration for long ones.
func BenchmarkHybridOps(b *testing.B) {
	const size = 4096
	b.Run("startstop-short/n=1024", func(b *testing.B) {
		benchStartStop(b, hybrid.New(size, nil), 1024, size)
	})
	b.Run("startstop-long/n=1024", func(b *testing.B) {
		f := hybrid.New(size, nil)
		preload(b, f, 1024, 1<<30)
		rng := dist.NewRNG(7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			iv := core.Tick(size + 1 + rng.Intn(1<<29))
			h, err := f.StartTimer(iv, noop)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.StopTimer(h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tick/n=16384-parked", func(b *testing.B) {
		benchPerTick(b, hybrid.New(size, nil), 16384)
	})
}

// benchResetHeavy drives one facility through a reset-dominated
// operation mix: with probability r% an iteration re-arms a random
// resident timer to a fresh interval, otherwise it Ticks. Every
// production scheme re-arms in place through core.Resetter. Timers that
// fired under the tick share are restarted on their next selection,
// holding the population near n throughout.
func benchResetHeavy(b *testing.B, f core.Facility, n, maxIv, r int) {
	b.Helper()
	rr, ok := f.(core.Resetter)
	if !ok {
		b.Fatal("scheme does not implement core.Resetter")
	}
	hs := make([]core.Handle, n)
	rng := dist.NewRNG(1987)
	start := func(i int, iv core.Tick) {
		h, err := f.StartTimer(iv, noop)
		if err != nil {
			b.Fatal(err)
		}
		hs[i] = h
	}
	for i := 0; i < n; i++ {
		start(i, core.Tick(1+rng.Intn(maxIv)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rng.Intn(100) >= r {
			f.Tick()
			continue
		}
		j := rng.Intn(n)
		iv := core.Tick(1 + rng.Intn(maxIv))
		if rr.ResetTimer(hs[j], iv) != nil {
			start(j, iv) // fired under a tick: repopulate
		}
	}
}

// BenchmarkResetHeavy: the reset-dominated race the grouped sorting
// queue was added for (wall-clock analogue of twbench e16). Equal-range
// tables: scheme6/hybrid 4096 buckets, scheme7 spans 2^26 in 448 slots,
// gsq covers 4096 ticks in 512 bands of width 8. Every scheme relinks
// the same entry on a reset; what separates them is per-tick work (Scheme
// 6 visits every resident once per revolution, Scheme 7 cascades, gsq
// sorts only band survivors).
func BenchmarkResetHeavy(b *testing.B) {
	const (
		n     = 16384
		maxIv = 4096
	)
	schemes := []struct {
		name string
		mk   func() core.Facility
	}{
		{"scheme6", func() core.Facility { return hashwheel.NewScheme6(4096, nil) }},
		{"scheme7", func() core.Facility {
			return hier.NewScheme7([]int{256, 64, 64, 64}, hier.MigrateAlways, nil)
		}},
		{"hybrid", func() core.Facility { return hybrid.New(4096, nil) }},
		{"gsq", func() core.Facility { return gsq.New(512, 8, nil) }},
	}
	for _, s := range schemes {
		for _, r := range []int{50, 80, 95} {
			b.Run(fmt.Sprintf("%s/r=%d", s.name, r), func(b *testing.B) {
				benchResetHeavy(b, s.mk(), n, maxIv, r)
			})
		}
	}
}

// BenchmarkAblationMaskVsMod: section 6.1.2's "AND instruction" claim —
// power-of-two tables index with a mask, others with modulo.
func BenchmarkAblationMaskVsMod(b *testing.B) {
	b.Run("mask/size=4096", func(b *testing.B) {
		benchStartStop(b, hashwheel.NewScheme6(4096, nil), 1024, 1<<30)
	})
	b.Run("mod/size=4099", func(b *testing.B) {
		benchStartStop(b, hashwheel.NewScheme6(4099, nil), 1024, 1<<30)
	})
}

// BenchmarkAblationRoundsVsAbsolute: the DECREMENT vs COMPARE choice of
// section 3.1, applied to Scheme 6's per-tick scan.
func BenchmarkAblationRoundsVsAbsolute(b *testing.B) {
	const size = 256
	const n = 4096
	b.Run("rounds-decrement", func(b *testing.B) {
		benchPerTick(b, hashwheel.NewScheme6(size, nil), n)
	})
	b.Run("absolute-compare", func(b *testing.B) {
		benchPerTick(b, hashwheel.NewScheme6Absolute(size, nil), n)
	})
}

// BenchmarkAblationMigrationPolicy: Scheme 7 policies — the per-tick
// saving bought by giving up expiry precision.
func BenchmarkAblationMigrationPolicy(b *testing.B) {
	radices := []int{64, 64, 64}
	for _, p := range []hier.Policy{hier.MigrateAlways, hier.MigrateOnce, hier.MigrateNever} {
		b.Run(p.String(), func(b *testing.B) {
			f := hier.NewScheme7(radices, p, nil)
			rng := dist.NewRNG(9)
			fired := 0
			for i := 0; i < 4096; i++ {
				iv := core.Tick(1 + rng.Intn(200000))
				if _, err := f.StartTimer(iv, func(core.ID) { fired++ }); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Tick()
			}
		})
	}
}

// BenchmarkRuntimeConcurrent: Appendix A.2 — concurrent scheduling
// against a single locked runtime vs a sharded one.
func BenchmarkRuntimeConcurrent(b *testing.B) {
	b.Run("single", func(b *testing.B) {
		rt := timer.NewRuntime(timer.WithGranularity(time.Millisecond),
			timer.WithScheme(timer.NewHashedWheel(1<<14)))
		defer rt.Close()
		var fired atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t, err := rt.AfterFunc(time.Second, func() { fired.Add(1) })
				if err != nil {
					b.Error(err)
					return
				}
				t.Stop()
			}
		})
	})
	b.Run("sharded-4", func(b *testing.B) {
		s := timer.NewSharded(4, timer.WithGranularity(time.Millisecond),
			timer.WithSchemeFactory(func() timer.Scheme { return timer.NewHashedWheel(1 << 14) }))
		defer s.Close()
		var fired atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t, err := s.AfterFunc(time.Second, func() { fired.Add(1) })
				if err != nil {
					b.Error(err)
					return
				}
				t.Stop()
			}
		})
	})
}

// BenchmarkRuntimeConcurrentTelemetry repeats the concurrent hot path
// with the full telemetry layer engaged — histograms always record, and
// WithTrace adds the flight recorder — so its delta against
// BenchmarkRuntimeConcurrent is the observable cost of observability,
// and the benchjson gate keeps it from regressing.
func BenchmarkRuntimeConcurrentTelemetry(b *testing.B) {
	b.Run("single-traced", func(b *testing.B) {
		rt := timer.NewRuntime(timer.WithGranularity(time.Millisecond),
			timer.WithScheme(timer.NewHashedWheel(1<<14)),
			timer.WithTrace(4096))
		defer rt.Close()
		var fired atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t, err := rt.AfterFunc(time.Second, func() { fired.Add(1) })
				if err != nil {
					b.Error(err)
					return
				}
				t.Stop()
			}
		})
	})
	b.Run("sharded-4-traced", func(b *testing.B) {
		s := timer.NewSharded(4, timer.WithGranularity(time.Millisecond),
			timer.WithSchemeFactory(func() timer.Scheme { return timer.NewHashedWheel(1 << 14) }),
			timer.WithTrace(4096))
		defer s.Close()
		var fired atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t, err := s.AfterFunc(time.Second, func() { fired.Add(1) })
				if err != nil {
					b.Error(err)
					return
				}
				t.Stop()
			}
		})
	})
}

// BenchmarkVsStdlib compares the AfterFunc+Stop hot path (the
// retransmission pattern: nearly every timer is cancelled) between this
// repository's wheel runtime and the Go standard library's runtime
// timers, under parallel load with a resident timer population.
func BenchmarkVsStdlib(b *testing.B) {
	const resident = 8192
	b.Run("timingwheels", func(b *testing.B) {
		rt := timer.NewRuntime(timer.WithGranularity(time.Millisecond),
			timer.WithScheme(timer.NewHashedWheel(1<<14)))
		defer rt.Close()
		for i := 0; i < resident; i++ {
			if _, err := rt.AfterFunc(time.Hour, func() {}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t, err := rt.AfterFunc(time.Second, func() {})
				if err != nil {
					b.Error(err)
					return
				}
				t.Stop()
			}
		})
	})
	b.Run("stdlib-time", func(b *testing.B) {
		var keep []*time.Timer
		for i := 0; i < resident; i++ {
			keep = append(keep, time.AfterFunc(time.Hour, func() {}))
		}
		defer func() {
			for _, t := range keep {
				t.Stop()
			}
		}()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t := time.AfterFunc(time.Second, func() {})
				t.Stop()
			}
		})
	})
}

// BenchmarkVirtualAdvance: idle-time handling — schemes with a NextExpiry
// fast path skip idle spans; wheels pay a constant per tick.
func BenchmarkVirtualAdvance(b *testing.B) {
	const span = 1 << 16
	build := map[string]func() core.Facility{
		"scheme2": func() core.Facility { return baseline.NewScheme2(baseline.SearchFromFront, nil) },
		"scheme3": func() core.Facility { return tree.NewScheme3(tree.KindHeap, nil) },
		"scheme6": func() core.Facility { return hashwheel.NewScheme6(4096, nil) },
	}
	for name, f := range build {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fac := f()
				fired := false
				if _, err := fac.StartTimer(span, func(core.ID) { fired = true }); err != nil {
					b.Fatal(err)
				}
				core.AdvanceBy(fac, span)
				if !fired {
					b.Fatal("timer did not fire")
				}
			}
		})
	}
}

// BenchmarkAblationBitmapAdvance: the occupancy-bitmap idle-skip — one
// sparse population advanced across a long horizon, Advance vs raw
// ticking.
func BenchmarkAblationBitmapAdvance(b *testing.B) {
	const size = 1 << 14
	const horizon = 1 << 16
	load := func(f core.Facility) {
		rng := dist.NewRNG(13)
		for i := 0; i < 32; i++ {
			if _, err := f.StartTimer(core.Tick(1+rng.Intn(horizon)), noop); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("scheme6-advance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := hashwheel.NewScheme6(size, nil)
			load(f)
			f.Advance(horizon)
		}
	})
	b.Run("scheme6-rawticks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := hashwheel.NewScheme6(size, nil)
			load(f)
			for t := 0; t < horizon; t++ {
				f.Tick()
			}
		}
	})
	b.Run("hybrid-advance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := hybrid.New(size, nil)
			load(f)
			f.Advance(horizon)
		}
	})
}

// BenchmarkRuntimeIngress measures admission throughput for the
// retransmission pattern (schedule a timeout, cancel it almost always)
// across the two admission paths — per-op (one lock acquisition per
// operation) and batched (one lock per batch of 64) — for 1, 4, and
// GOMAXPROCS explicit producer goroutines splitting b.N, on both a
// single runtime and a 4-way sharded facility. The interesting deltas:
// sync-batch64 vs sync at the same producer count is the
// lock-amortization win; the p4 vs p1 scaling within one mode is the
// contention story. (The name predates the retired staging ring; it is
// kept so the rows stay comparable with earlier BENCH_*.json files.)
func BenchmarkRuntimeIngress(b *testing.B) {
	producers := []int{1, 4}
	if p := goruntime.GOMAXPROCS(0); p != 1 && p != 4 {
		producers = append(producers, p)
	}
	const batchSize = 64
	nothing := func() {}

	type admitter interface {
		AfterFunc(time.Duration, func(), ...timer.ScheduleOption) (*timer.Timer, error)
		ScheduleBatch([]timer.Req) ([]*timer.Timer, error)
		StopBatch([]*timer.Timer) int
		Close() error
	}

	perOp := func(b *testing.B, fac admitter, n int) {
		for i := 0; i < n; i++ {
			t, err := fac.AfterFunc(time.Second, nothing)
			if err != nil {
				b.Error(err)
				return
			}
			t.Stop()
		}
	}
	batched := func(b *testing.B, fac admitter, n int) {
		reqs := make([]timer.Req, batchSize)
		for i := range reqs {
			reqs[i] = timer.Req{After: time.Second, Fn: nothing}
		}
		for done := 0; done < n; done += batchSize {
			k := batchSize
			if n-done < k {
				k = n - done
			}
			timers, err := fac.ScheduleBatch(reqs[:k])
			if err != nil {
				b.Error(err)
				return
			}
			fac.StopBatch(timers)
		}
	}

	facilities := []struct {
		name string
		mk   func() admitter
	}{
		{"single", func() admitter {
			return timer.NewRuntime(
				timer.WithGranularity(time.Millisecond),
				timer.WithScheme(timer.NewHashedWheel(1<<14)),
			)
		}},
		{"sharded-4", func() admitter {
			return timer.NewSharded(4,
				timer.WithGranularity(time.Millisecond),
				timer.WithSchemeFactory(func() timer.Scheme { return timer.NewHashedWheel(1 << 14) }),
			)
		}},
	}
	modes := []struct {
		name string
		run  func(*testing.B, admitter, int)
	}{
		{"sync", perOp},
		{"sync-batch64", batched},
	}

	for _, f := range facilities {
		for _, m := range modes {
			for _, p := range producers {
				b.Run(fmt.Sprintf("%s/%s/p%d", f.name, m.name, p), func(b *testing.B) {
					fac := f.mk()
					defer fac.Close()
					per := b.N / p
					var wg sync.WaitGroup
					b.ResetTimer()
					for i := 0; i < p; i++ {
						n := per
						if i == 0 {
							n = b.N - per*(p-1)
						}
						wg.Add(1)
						go func(n int) {
							defer wg.Done()
							m.run(b, fac, n)
						}(n)
					}
					wg.Wait()
				})
			}
		}
	}
}

// BenchmarkWALAppend prices the durable timer daemon's write path: one
// timer admission is one framed record appended to the write-ahead log
// under each sync policy, reported per record. "every1" is the fully
// durable worst case (a write and an fsync per record), "every64" is
// the daemon's default group commit, "interval" trades a bounded
// durability window for append-rate, and "batch40" is a schedule-batch
// of 40 admissions: 40 appends then one Commit, so one write(2) and one
// fsync. "nosync" isolates framing+CRC into the log's buffer, with the
// write(2) and the disk out of the picture (it flushes only when the
// buffer fills). The every64/every1 ratio is the group-commit win.
func BenchmarkWALAppend(b *testing.B) {
	policies := []struct {
		name   string
		opts   wal.Options
		commit int // Commit after this many appends; 0 leaves syncs to opts
	}{
		{"nosync", wal.Options{}, 0},
		{"every1", wal.Options{SyncEvery: 1}, 0},
		{"every64", wal.Options{SyncEvery: 64}, 0},
		{"interval2ms", wal.Options{SyncInterval: 2 * time.Millisecond}, 0},
		{"batch40", wal.Options{}, 40},
	}
	payload := make([]byte, 64)
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			log, _, err := wal.Open(b.TempDir(), p.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			rec := wal.Record{Op: wal.OpSchedule, Class: 1, Deadline: 1 << 50, Payload: payload}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.ID = uint64(i + 1)
				lsn, err := log.Append(rec)
				if err != nil {
					b.Fatal(err)
				}
				if p.commit > 0 && (i+1)%p.commit == 0 {
					if err := log.Commit(lsn); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			log.Sync()
		})
	}
}

// BenchmarkWALStream prices warm-standby replication: a writer appends
// framed records under the daemon's sync policies while a follower
// tails the durable prefix through ReadDurable and re-frames it with a
// FrameDecoder — the exact read path twd's replication streamer and
// follower share. The metric that matters is frames/s: how fast a
// standby can drink a primary's commit stream. SyncEvery=1 shows
// replication gated by per-record fsync; SyncEvery=64 shows the group
// commit window the streamer rides.
func BenchmarkWALStream(b *testing.B) {
	for _, sync := range []int{1, 64} {
		b.Run(fmt.Sprintf("syncevery%d", sync), func(b *testing.B) {
			log, _, err := wal.Open(b.TempDir(), wal.Options{SyncEvery: sync})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			payload := make([]byte, 64)
			b.ResetTimer()

			done := make(chan error, 1)
			go func() {
				// The follower half: poll the durable boundary, decode
				// every frame exactly once.
				var dec wal.FrameDecoder
				epoch := log.FollowPos().Epoch
				var off int64
				decoded := 0
				for decoded < b.N {
					chunk, err := log.ReadDurable(epoch, off, 256<<10)
					if err != nil {
						done <- err
						return
					}
					if len(chunk) == 0 {
						goruntime.Gosched() // caught up; writer still appending
						continue
					}
					off += int64(len(chunk))
					dec.Write(chunk)
					for {
						_, n, err := dec.Next()
						if err != nil {
							done <- err
							return
						}
						if n == 0 {
							break
						}
						decoded++
					}
				}
				done <- nil
			}()

			rec := wal.Record{Op: wal.OpSchedule, Class: 1, Deadline: 1 << 50, Payload: payload}
			for i := 0; i < b.N; i++ {
				rec.ID = uint64(i + 1)
				if _, err := log.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			// Promote the group-commit tail so the follower can finish.
			if err := log.Sync(); err != nil {
				b.Fatal(err)
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// BenchmarkAdmitTraced measures what stage tracing adds to the daemon's
// admission hot path. The modeled admission is the facility half twd
// performs per request — AfterFunc then Stop against a sharded facility
// — and the traced variant wraps it in a full five-mark stagetrace span
// (decode, append, commit, arm, publish) recorded into live histograms
// and exemplar rings, exactly as cmd/twd does per request. The delta
// between the two sub-benchmarks is the per-request cost of the
// observability layer; the benchjson gate holds both to the usual
// no-regression bar.
func BenchmarkAdmitTraced(b *testing.B) {
	newFac := func() *timer.Sharded {
		return timer.NewSharded(4, timer.WithGranularity(time.Millisecond),
			timer.WithSchemeFactory(func() timer.Scheme { return timer.NewHashedWheel(1 << 14) }))
	}
	b.Run("untraced", func(b *testing.B) {
		s := newFac()
		defer s.Close()
		var fired atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t, err := s.AfterFunc(time.Second, func() { fired.Add(1) })
				if err != nil {
					b.Error(err)
					return
				}
				t.Stop()
			}
		})
	})
	b.Run("traced", func(b *testing.B) {
		s := newFac()
		defer s.Close()
		rec := stagetrace.NewRecorder(stagetrace.Config{
			Recent: 1024, Slow: 256, SlowThreshold: 25 * time.Millisecond,
		})
		var fired atomic.Int64
		var id atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				sp := rec.Begin("admit", "bench-trace", 0, 1)
				sp.Mark("decode")
				sp.Mark("append")
				t, err := s.AfterFunc(time.Second, func() { fired.Add(1) })
				if err != nil {
					b.Error(err)
					return
				}
				sp.Mark("commit")
				sp.Mark("arm")
				t.Stop()
				sp.Mark("publish")
				sp.SetTimer(id.Add(1), 1)
				sp.Finish()
			}
		})
	})
}
