package workload

import (
	"math"
	"testing"

	"timingwheels/internal/analysis"
	"timingwheels/internal/baseline"
	"timingwheels/internal/core"
	"timingwheels/internal/dist"
	"timingwheels/internal/gsq"
	"timingwheels/internal/hashwheel"
	"timingwheels/internal/metrics"
)

func TestRunBasicCounts(t *testing.T) {
	var cost metrics.Cost
	fac := hashwheel.NewScheme6(64, &cost)
	res := Run(fac, Config{
		Arrival:     &dist.Poisson{RatePerTick: 0.5},
		Interval:    dist.Exponential{MeanTicks: 50},
		Seed:        1,
		Warmup:      2000,
		Measure:     8000,
		SampleEvery: 100,
	}, &cost)
	if res.Started == 0 || res.Fired == 0 {
		t.Fatalf("started=%d fired=%d", res.Started, res.Fired)
	}
	if res.Stopped != 0 {
		t.Fatalf("stopped=%d with CancelProb=0", res.Stopped)
	}
	if res.StartCost.N() != int(res.Started) {
		t.Fatalf("start cost samples %d != started %d", res.StartCost.N(), res.Started)
	}
	if res.TickCost.N() != 8000 {
		t.Fatalf("tick cost samples %d", res.TickCost.N())
	}
	if res.QueueLen.N() != 80 {
		t.Fatalf("queue samples %d", res.QueueLen.N())
	}
	if res.Ticks != 8000 {
		t.Fatalf("Ticks=%d", res.Ticks)
	}
}

// TestLittlesLaw verifies the Figure 3 model: steady-state outstanding
// count approaches lambda * E[T].
func TestLittlesLaw(t *testing.T) {
	fac := hashwheel.NewScheme6(256, nil)
	lambda, meanT := 0.5, 200.0
	res := Run(fac, Config{
		Arrival:     &dist.Poisson{RatePerTick: lambda},
		Interval:    dist.Exponential{MeanTicks: meanT},
		Seed:        2,
		Warmup:      5000,
		Measure:     40000,
		SampleEvery: 50,
	}, nil)
	want := analysis.LittleN(lambda, meanT)
	got := res.QueueLen.Mean()
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("mean queue %.1f, Little's law predicts %.1f", got, want)
	}
}

func TestCancellation(t *testing.T) {
	fac := baseline.NewScheme2(baseline.SearchFromFront, nil)
	res := Run(fac, Config{
		Arrival:    &dist.Poisson{RatePerTick: 0.2},
		Interval:   dist.Uniform{Lo: 20, Hi: 100},
		CancelProb: 0.9,
		Seed:       3,
		Warmup:     1000,
		Measure:    10000,
	}, nil)
	if res.Stopped == 0 {
		t.Fatal("no timers stopped despite CancelProb=0.9")
	}
	// Roughly 90% of measured timers stop; allow wide slack because some
	// cancellations fall outside the window.
	ratio := float64(res.Stopped) / float64(res.Started)
	if ratio < 0.7 || ratio > 1.0 {
		t.Fatalf("stop ratio %.2f, want ~0.9", ratio)
	}
	if res.StopCost.N() != int(res.Stopped) {
		t.Fatalf("stop samples %d != stopped %d", res.StopCost.N(), res.Stopped)
	}
}

func TestMaxOutstandingBound(t *testing.T) {
	fac := hashwheel.NewScheme6(64, nil)
	res := Run(fac, Config{
		Arrival:        &dist.Poisson{RatePerTick: 5},
		Interval:       dist.Constant{Value: 1000},
		Seed:           4,
		Warmup:         0,
		Measure:        3000,
		SampleEvery:    10,
		MaxOutstanding: 100,
	}, nil)
	if res.QueueLen.Max() > 101 {
		t.Fatalf("queue exceeded bound: %v", res.QueueLen.Max())
	}
}

// TestRemainingSamplesResidualLife: for exponential intervals, the
// sampled remaining-time distribution matches the exponential residual
// (memorylessness) — the Figure 3 / E12 claim.
func TestRemainingSamplesResidualLife(t *testing.T) {
	fac := hashwheel.NewScheme6(256, nil)
	meanT := 100.0
	res := Run(fac, Config{
		Arrival:         &dist.Poisson{RatePerTick: 1},
		Interval:        dist.Exponential{MeanTicks: meanT},
		Seed:            5,
		Warmup:          3000,
		Measure:         20000,
		SampleEvery:     200,
		SampleRemaining: true,
	}, nil)
	if res.Remaining.N() < 1000 {
		t.Fatalf("too few remaining samples: %d", res.Remaining.N())
	}
	// Mean residual of exp(mean) is the mean itself.
	got := res.Remaining.Mean()
	if math.Abs(got-meanT)/meanT > 0.15 {
		t.Fatalf("mean remaining %.1f, want ~%.0f", got, meanT)
	}
	// Median of exponential = mean * ln 2.
	med := res.Remaining.Percentile(50)
	if math.Abs(med-meanT*math.Ln2)/meanT > 0.15 {
		t.Fatalf("median remaining %.1f, want ~%.1f", med, meanT*math.Ln2)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		return Run(hashwheel.NewScheme6(64, nil), Config{
			Arrival:  &dist.Poisson{RatePerTick: 0.3},
			Interval: dist.Uniform{Lo: 1, Hi: 200},
			Seed:     42,
			Warmup:   500,
			Measure:  5000,
		}, nil)
	}
	a, b := run(), run()
	if a.Started != b.Started || a.Fired != b.Fired || a.FinalLen != b.FinalLen {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestResetWorkload drives the reset mechanics on both reset flavors:
// in place through core.Resetter (the grouped sorting queue) and as a
// stop+start pair (Scheme 6 behind a wrapper that exposes only the
// paper's Facility API, as Schemes 1-4 and the trees offer). In both cases the geometric reset chain
// must actually run, be charged to ResetCost, and keep the outstanding
// ledger coherent.
func TestResetWorkload(t *testing.T) {
	cfg := func(seed uint64) Config {
		return Config{
			Arrival:     &dist.Poisson{RatePerTick: 0.5},
			Interval:    dist.Uniform{Lo: 20, Hi: 200},
			ResetProb:   0.8,
			ResetAt:     0.3,
			Seed:        seed,
			Warmup:      1000,
			Measure:     10000,
			SampleEvery: 100,
		}
	}

	t.Run("in-place", func(t *testing.T) {
		var cost metrics.Cost
		fac := gsq.New(64, 8, &cost)
		res := Run(fac, cfg(11), &cost)
		if res.Resets == 0 {
			t.Fatal("no resets despite ResetProb=0.8")
		}
		if res.InPlaceResets != res.Resets {
			t.Fatalf("gsq reset %d timers but only %d in place", res.Resets, res.InPlaceResets)
		}
		if res.ResetCost.N() != int(res.Resets) {
			t.Fatalf("reset samples %d != resets %d", res.ResetCost.N(), res.Resets)
		}
		// Geometric(0.8) chain: ~4 resets per started timer on average.
		if ratio := float64(res.Resets) / float64(res.Started); ratio < 2 || ratio > 6 {
			t.Fatalf("resets/started = %.2f, want ~4 for p=0.8", ratio)
		}
		if err := fac.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("stop-start", func(t *testing.T) {
		fac := struct{ core.Facility }{hashwheel.NewScheme6(256, nil)}
		res := Run(fac, cfg(11), nil)
		if res.Resets == 0 {
			t.Fatal("no resets despite ResetProb=0.8")
		}
		if res.InPlaceResets != 0 {
			t.Fatalf("a Facility-only scheme cannot reset in place, yet InPlaceResets=%d", res.InPlaceResets)
		}
	})
}

// TestResetScenariosRegistry checks the reset-dominated family: nine
// presets, resolvable by name, and disjoint from the classic registry
// so the E15 sweep is untouched.
func TestResetScenariosRegistry(t *testing.T) {
	rs := ResetScenarios()
	if len(rs) != 9 {
		t.Fatalf("got %d reset scenarios, want 9 (3 sizes x 3 ratios)", len(rs))
	}
	classic := make(map[string]bool)
	for _, s := range Scenarios() {
		classic[s.Name] = true
	}
	for _, s := range rs {
		if classic[s.Name] {
			t.Fatalf("reset scenario %q collides with the classic registry", s.Name)
		}
		got, err := ScenarioByName(s.Name)
		if err != nil || got.Name != s.Name {
			t.Fatalf("ScenarioByName(%q) = %v, %v", s.Name, got.Name, err)
		}
		cfg := s.Build(1)
		if cfg.ResetProb <= 0 {
			t.Fatalf("%s: ResetProb=%v, want > 0", s.Name, cfg.ResetProb)
		}
	}
}

// TestResetProbZeroPreservesStreams pins that the reset feature is
// inert when disabled: a ResetProb=0 run consumes exactly the random
// numbers it did before the feature existed (the reset RNG forks
// lazily), so historical scenario results stay reproducible.
func TestResetProbZeroPreservesStreams(t *testing.T) {
	run := func(p float64) *Result {
		return Run(hashwheel.NewScheme6(64, nil), Config{
			Arrival:    &dist.Poisson{RatePerTick: 0.3},
			Interval:   dist.Uniform{Lo: 1, Hi: 200},
			CancelProb: 0.5,
			ResetProb:  p,
			Seed:       42,
			Warmup:     500,
			Measure:    5000,
		}, nil)
	}
	a, b := run(0), run(0)
	if a.Started != b.Started || a.Fired != b.Fired || a.Stopped != b.Stopped {
		t.Fatalf("ResetProb=0 runs diverged: %+v vs %+v", a, b)
	}
	if a.Resets != 0 || a.ResetCost.N() != 0 {
		t.Fatalf("ResetProb=0 produced resets: %d", a.Resets)
	}
}
