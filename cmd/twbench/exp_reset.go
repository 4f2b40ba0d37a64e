package main

import (
	"fmt"
	"strings"

	"timingwheels/internal/core"
	"timingwheels/internal/gsq"
	"timingwheels/internal/hashwheel"
	"timingwheels/internal/hier"
	"timingwheels/internal/hybrid"
	"timingwheels/internal/metrics"
	"timingwheels/internal/workload"
)

// runE16 races the paper's wheels against the grouped sorting queue on
// the reset-dominated scenario family: n connections whose retransmit
// timers are re-armed on a fraction r of lifecycle events (every ACK
// pushes the timeout out). Every scheme re-arms the same entry in place
// (unlink, re-place, relink); the wheels re-discretize, and Scheme 7
// takes a fresh cascade position, while the grouped sorting queue only
// relinks and sorts a band's survivors once. The table publishes where
// the crossover sits: at which reset ratio the per-event cost of gsq
// drops below Scheme 6 and Scheme 7.
func runE16(e env) {
	schemes := []struct {
		name string
		f    factoryFn
	}{
		// Comparable table memory: scheme6/hybrid use 4096 buckets; gsq
		// covers the same 4096-tick range with 512 bands of width 8
		// (one list head per band — half the scheme6 footprint).
		{"scheme6", func(c *metrics.Cost) core.Facility { return hashwheel.NewScheme6(4096, c) }},
		{"scheme7", func(c *metrics.Cost) core.Facility {
			return hier.NewScheme7([]int{256, 64, 64, 64}, hier.MigrateAlways, c)
		}},
		{"hybrid", func(c *metrics.Cost) core.Facility { return hybrid.New(4096, c) }},
		{"gsq", func(c *metrics.Cost) core.Facility { return gsq.New(512, 8, c) }},
		// Width-1 degenerate case: band == tick, no lazy sort at all —
		// structurally a Scheme 6 wheel that re-arms in place.
		{"gsq-w1", func(c *metrics.Cost) core.Facility { return gsq.New(4096, 1, c) }},
	}
	header("scenario", "scheme", "n_mean", "resets", "reset_mean", "start_mean", "tick_mean", "event_mean")
	type cell struct{ reset, event float64 }
	results := make(map[string]map[string]cell) // scenario -> scheme -> means
	var order []string
	for _, sc := range workload.ResetScenarios() {
		if e.quick && strings.HasSuffix(sc.Name, "-1m") {
			continue // the 1M-connection points need the full run
		}
		results[sc.Name] = make(map[string]cell)
		order = append(order, sc.Name)
		for _, s := range schemes {
			cfg := sc.Build(e.seed)
			if e.quick {
				if cfg.Measure > 1000 {
					cfg.Measure = 1000
				}
				if cfg.Warmup > 500 {
					cfg.Warmup = 500
				}
			}
			var cost metrics.Cost
			res := workload.Run(s.f(&cost), cfg, &cost)
			// event_mean: total measured facility cost divided by the
			// lifecycle events that incurred it (starts, resets, stops,
			// and per-tick bookkeeping) — the workload-level figure of
			// merit a protocol implementor pays per packet.
			events := float64(res.Started+res.Resets+res.Stopped) + float64(res.Ticks)
			total := res.StartCost.Sum() + res.ResetCost.Sum() + res.StopCost.Sum() + res.TickCost.Sum()
			eventMean := 0.0
			if events > 0 {
				eventMean = total / events
			}
			results[sc.Name][s.name] = cell{reset: res.ResetCost.Mean(), event: eventMean}
			row(sc.Name, s.name, res.QueueLen.Mean(), res.Resets,
				res.ResetCost.Mean(), res.StartCost.Mean(),
				res.TickCost.Mean(), eventMean)
		}
	}
	// Crossover summary: the lowest reset ratio at which each gsq
	// flavor's per-event cost beats each wheel, per population size.
	for _, g := range []string{"gsq", "gsq-w1"} {
		for _, wheel := range []string{"scheme6", "scheme7"} {
			var lines []string
			for _, size := range []string{"10k", "100k", "1m"} {
				found := ""
				for _, ratio := range []int{50, 80, 95} {
					name := fmt.Sprintf("reset-r%d-%s", ratio, size)
					r, ok := results[name]
					if !ok {
						continue
					}
					if r[g].event < r[wheel].event {
						found = fmt.Sprintf("r=%d%%", ratio)
						break
					}
				}
				if found == "" {
					if _, ok := results[fmt.Sprintf("reset-r50-%s", size)]; !ok {
						continue // size skipped under -quick
					}
					found = "none"
				}
				lines = append(lines, fmt.Sprintf("%s: %s", size, found))
			}
			note("%s beats %s (per-event cost) from %s", g, wheel, strings.Join(lines, ", "))
		}
	}
	note("every scheme resets in place: one unlink and one placement per")
	note("reset; scheme7 re-enters the cascade. Timers reset away before")
	note("their gsq band comes due are never sorted at all.")
}
