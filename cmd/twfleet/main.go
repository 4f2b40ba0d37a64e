// Command twfleet runs the virtual-time fleet simulator: millions of
// simulated connections (idle timeouts, retransmit resets, rate-limiter
// refills) against sharded timing-wheel runtimes, replaying days of
// traffic in seconds of wall time via timer.VirtualDriver.
//
// The run is an assertion, not a demo: twfleet exits non-zero unless
// the conservation ledger (started == delivered + stopped + outstanding
// + abandoned) closes exactly and the p99.9 firing lag from
// the HDR histograms stays within the SLO.
//
// Usage:
//
//	twfleet [-conns 1000000] [-shards 4] [-hours 24] [-gran 100ms]
//	        [-seed 1] [-slo-ticks 2] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"timingwheels/internal/fleet"
)

func main() {
	var (
		conns    = flag.Int("conns", 1_000_000, "simulated connections")
		shards   = flag.Int("shards", 4, "independent runtime shards")
		hours    = flag.Float64("hours", 24, "virtual duration in hours")
		gran     = flag.Duration("gran", 100*time.Millisecond, "tick granularity")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
		idle     = flag.Duration("idle", 5*time.Minute, "per-connection idle timeout")
		activity = flag.Duration("activity", 6*time.Hour, "mean interval between activity bursts per connection")
		rto      = flag.Duration("rto", time.Second, "retransmission timeout")
		sloTicks = flag.Int64("slo-ticks", 2, "p99.9 firing-lag SLO, in ticks")
		verbose  = flag.Bool("v", false, "per-hour progress")
	)
	flag.Parse()

	cfg := fleet.Config{
		Conns:        *conns,
		Shards:       *shards,
		Duration:     time.Duration(*hours * float64(time.Hour)),
		Granularity:  *gran,
		Seed:         *seed,
		IdleTimeout:  *idle,
		ActivityMean: *activity,
		RetransRTO:   *rto,
	}
	if *verbose {
		cfg.Progress = func(shard int, virtual time.Duration) {
			fmt.Fprintf(os.Stderr, "shard %d: %v virtual\n", shard, virtual)
		}
	}

	rep, err := fleet.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twfleet:", err)
		os.Exit(1)
	}

	speedup := float64(rep.VirtualDuration) / float64(rep.WallDuration)
	fmt.Printf("fleet: %d conns x %v virtual on %d shards (%s) in %v wall (%.0fx)\n",
		rep.Conns, rep.VirtualDuration, rep.Shards, rep.Scheme,
		rep.WallDuration.Round(time.Millisecond), speedup)
	fmt.Printf("ledger: %s\n", rep.Ledger())
	fmt.Printf("workload: activities=%d idle-closes=%d reopens=%d idle-resets=%d\n",
		rep.Activities, rep.IdleCloses, rep.Reopens, rep.IdleResets)
	fmt.Printf("          rtx-starts=%d retransmissions=%d acks=%d refill-ticks=%d\n",
		rep.RetransStarts, rep.Retransmissions, rep.Acks, rep.RefillTicks)
	fmt.Printf("firing lag: p50=%v p99=%v p99.9=%v max=%v\n",
		time.Duration(rep.LagP50NS), time.Duration(rep.LagP99NS),
		time.Duration(rep.LagP999NS), time.Duration(rep.LagMaxNS))

	failed := false
	if !rep.LedgerOK {
		fmt.Fprintln(os.Stderr, "twfleet: FAIL: conservation ledger does not close")
		failed = true
	}
	if maxLag := *sloTicks * gran.Nanoseconds(); rep.LagP999NS > maxLag {
		fmt.Fprintf(os.Stderr, "twfleet: FAIL: p99.9 firing lag %v exceeds SLO of %d ticks (%v)\n",
			time.Duration(rep.LagP999NS), *sloTicks, time.Duration(maxLag))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
