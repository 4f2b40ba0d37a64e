package schemetest

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"timingwheels/internal/chaos"
	"timingwheels/timer"
)

// TestOverloadSoakUnderChaos runs bursty schedule/stop traffic over each
// production-candidate scheme while the chaos clock injects forward
// jumps, a stall/resume cycle, a backward step, and one leap past the
// catch-up budget, then shuts down with Drain(DrainFireNow). Every
// timer must be accounted exactly: what was scheduled and not stopped
// ran exactly once, the drain cancelled nothing, and the
// started/delivered/stopped/abandoned ledger balances.
func TestOverloadSoakUnderChaos(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 60
	}
	schemes := []string{"scheme5", "scheme6", "scheme6-abs", "scheme7", "hybrid", "gsq"}
	for _, name := range schemes {
		factory := factories()[name]
		if factory == nil {
			t.Fatalf("unknown scheme %q", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const granularity = 10 * time.Millisecond
			clk := chaos.NewManual(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
			rt := timer.NewRuntime(
				timer.WithScheme(factory()),
				timer.WithGranularity(granularity),
				timer.WithNowFunc(clk.Now),
				timer.WithManualDriver(),
				// A small catch-up budget so a modest jump is an anomaly:
				// scheme7's [8,8,8] hierarchy only spans 512 ticks, so the
				// leap (and the backlog-relative intervals it causes) must
				// stay well inside that while still exceeding the budget.
				timer.WithMaxCatchUp(64),
			)

			var ran atomic.Uint64
			var scheduled, stopped uint64
			rng := uint64(0x0DDBA11 + len(name))
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for round := 0; round < rounds; round++ {
				burst := 6 + next(8)
				for i := 0; i < burst; i++ {
					d := time.Duration(1+next(5)) * granularity
					tm, err := rt.AfterFunc(d, func() { ran.Add(1) })
					if err != nil {
						t.Fatalf("round %d: AfterFunc: %v", round, err)
					}
					scheduled++
					if next(4) == 0 && tm.Stop() {
						stopped++
					}
				}
				// Clock chaos on a fixed schedule so every run is identical.
				switch {
				case round%31 == 17:
					clk.Jump(7 * granularity)
				case round%47 == 23:
					clk.Stall()
				case round%47 == 29:
					clk.Resume()
				case round == rounds/2:
					clk.Jump(time.Second) // 100 ticks: past the catch-up budget
				case round == rounds*3/4:
					clk.Regress(3 * granularity)
				}
				clk.Advance(granularity)
				rt.Poll()
			}
			clk.Resume() // in case the schedule left the clock stalled
			rep, err := rt.Drain(context.Background(), timer.DrainFireNow)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cancelled != 0 {
				t.Fatalf("FireNow drain cancelled %d timers", rep.Cancelled)
			}
			h := rt.Health()
			if got, want := ran.Load(), scheduled-stopped; got != want || h.Delivered != want {
				t.Fatalf("ran %d, delivered %d, want %d (scheduled %d - stopped %d)",
					got, h.Delivered, want, scheduled, stopped)
			}
			if h.Anomalies == 0 {
				t.Fatal("chaos clock injected no observed anomalies")
			}
			started, expired, stoppedN := rt.Stats()
			if started != scheduled || stoppedN != stopped || started != expired+stoppedN+h.AbandonedOnClose {
				t.Fatalf("conservation broken: started=%d expired=%d stopped=%d abandoned=%d (scheduled %d, stopped %d)",
					started, expired, stoppedN, h.AbandonedOnClose, scheduled, stopped)
			}
		})
	}
}
