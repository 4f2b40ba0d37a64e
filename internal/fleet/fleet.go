// Package fleet is the virtual-time fleet simulator: millions of
// simulated connections driving idle timeouts, retransmit resets, and
// rate-limiter refills against sharded timing-wheel runtimes, replayed
// through timer.VirtualDriver so days of traffic compress into seconds
// of wall time.
//
// The workload is the paper's own motivating mix. Idle timeouts are the
// "timers almost always cancelled or reset" case (every activity Resets
// the connection's timeout); retransmit timers are the start/stop churn
// of a transport protocol (acks cancel them before expiry, stragglers
// fire); rate-limiter refill tickers are the periodic "timers almost
// always expire" case. At exit the simulator closes the conservation
// ledger — started == delivered + stopped + outstanding + abandoned,
// exactly — and reports firing-lag quantiles from the
// runtimes' HDR histograms, which is what makes the run an assertion
// and not a demo.
package fleet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"timingwheels/internal/hdr"
	"timingwheels/timer"
)

// Config sizes one simulation run. Zero fields take defaults.
type Config struct {
	// Conns is the total number of simulated connections across all
	// shards (default 1_000_000).
	Conns int
	// Shards is the number of independent virtual runtimes the
	// connections are partitioned over (default 4).
	Shards int
	// Duration is the virtual horizon (default 24h).
	Duration time.Duration
	// Granularity is each runtime's tick length (default 100ms).
	Granularity time.Duration
	// Seed feeds the per-shard RNGs; a given (Config, Seed) replays the
	// same traffic exactly (default 1).
	Seed int64

	// IdleTimeout closes a connection that sees no activity (default
	// 5m). Every activity Resets this timer — the reset-heavy path.
	IdleTimeout time.Duration
	// ActivityMean is the mean interval between activity bursts on one
	// connection (default 6h; most connections sit closed most of the
	// virtual day, as fleet idle timers do).
	ActivityMean time.Duration
	// RetransRTO is the retransmission timeout armed (with probability
	// 1/2) by an activity on an open connection; the next activity acks
	// (Stops) it if it has not fired (default 1s).
	RetransRTO time.Duration
	// Limiters is the number of rate-limiter refill tickers per shard
	// (default 4), each firing every RefillEvery (default 1s) — the
	// almost-always-expire population.
	Limiters    int
	RefillEvery time.Duration

	// Progress, when non-nil, is called once per simulated hour per
	// shard with the shard index and virtual time elapsed. Callbacks
	// arrive from shard goroutines.
	Progress func(shard int, virtual time.Duration)
}

func (c *Config) applyDefaults() {
	if c.Conns <= 0 {
		c.Conns = 1_000_000
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Duration <= 0 {
		c.Duration = 24 * time.Hour
	}
	if c.Granularity <= 0 {
		c.Granularity = 100 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.ActivityMean <= 0 {
		c.ActivityMean = 6 * time.Hour
	}
	if c.RetransRTO <= 0 {
		c.RetransRTO = time.Second
	}
	if c.Limiters <= 0 {
		c.Limiters = 4
	}
	if c.RefillEvery <= 0 {
		c.RefillEvery = time.Second
	}
}

// Report is one run's outcome: the summed conservation ledger, the
// merged firing-lag distribution, and the workload's own counters.
type Report struct {
	Conns, Shards   int
	Scheme          string
	VirtualDuration time.Duration
	WallDuration    time.Duration

	// Ledger terms, summed across shards. LedgerOK reports whether
	// Started == Delivered + Stopped + Outstanding + Abandoned
	// held exactly.
	Started, Delivered   uint64
	Stopped, Outstanding uint64
	Abandoned            uint64
	LedgerOK             bool

	// Workload counters.
	Activities      uint64 // activity bursts applied
	IdleCloses      uint64 // idle timeouts that fired
	Reopens         uint64 // closed connections woken by activity
	IdleResets      uint64 // idle timers pushed out by activity
	RetransStarts   uint64 // retransmission timers armed
	Retransmissions uint64 // retransmission timers that fired
	Acks            uint64 // retransmission timers cancelled in time
	RefillTicks     uint64 // rate-limiter refills delivered

	// Firing lag, merged across shards, in nanoseconds.
	LagP50NS, LagP99NS, LagP999NS, LagMaxNS int64
}

// Ledger formats the conservation identity with its terms.
func (r *Report) Ledger() string {
	return fmt.Sprintf("started=%d = delivered=%d + stopped=%d + outstanding=%d + abandoned=%d",
		r.Started, r.Delivered, r.Stopped, r.Outstanding, r.Abandoned)
}

// conn is one simulated connection on a shard. Timer handles follow the
// runtime's free-list contract: idle is never Stopped (fired timers
// stay re-armable, so the one object lives for the whole run), and rtx
// is dropped to nil the moment it fires or its Stop returns true.
type conn struct {
	idle   *timer.Timer
	rtx    *timer.Timer
	idleFn func() // created once; AfterFunc re-arms allocate no closure
	rtxFn  func()
	ackFn  func()
	open   bool
}

// shard owns one virtual runtime and a partition of the fleet. All
// fields are touched only on the shard's goroutine (expiry callbacks
// run inside VirtualDriver.RunUntil on that same goroutine), so there
// are no locks.
type shard struct {
	cfg   *Config
	rt    *timer.Runtime
	vd    *timer.VirtualDriver
	rng   *rand.Rand
	conns []conn
	acc   float64 // fractional activity carry between pacer fires

	activities, idleCloses, reopens, idleResets uint64
	retransStarts, retransmissions, acks        uint64
	refillTicks                                 uint64
}

// Run executes one simulation and returns its report. The error is
// non-nil only for configuration/start-up failures; SLO judgements are
// the caller's, from the report.
func Run(cfg Config) (*Report, error) {
	cfg.applyDefaults()
	wallStart := time.Now()

	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		n := cfg.Conns / cfg.Shards
		if i < cfg.Conns%cfg.Shards {
			n++
		}
		s, err := newShard(&cfg, i, n)
		if err != nil {
			return nil, err
		}
		shards[i] = s
	}

	// One goroutine per shard; on a single-core host they serialize, on
	// SMP they spread, matching the paper's Appendix A.2 sharding story.
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			s.run(i)
		}(i, s)
	}
	wg.Wait()

	rep := &Report{
		Conns:           cfg.Conns,
		Shards:          cfg.Shards,
		VirtualDuration: cfg.Duration,
	}
	var lag hdr.Snapshot
	for _, s := range shards {
		snap := s.rt.Snapshot()
		rep.Scheme = snap.Scheme
		rep.Started += snap.Started
		rep.Delivered += snap.Health.Delivered
		rep.Stopped += snap.Stopped
		rep.Outstanding += uint64(snap.Outstanding)
		rep.Abandoned += snap.Health.AbandonedOnClose
		lag.Merge(snap.FiringLagNS)

		rep.Activities += s.activities
		rep.IdleCloses += s.idleCloses
		rep.Reopens += s.reopens
		rep.IdleResets += s.idleResets
		rep.RetransStarts += s.retransStarts
		rep.Retransmissions += s.retransmissions
		rep.Acks += s.acks
		rep.RefillTicks += s.refillTicks
	}
	rep.LedgerOK = rep.Started == rep.Delivered+rep.Stopped+rep.Outstanding+rep.Abandoned
	rep.LagP50NS = lag.P50()
	rep.LagP99NS = lag.P99()
	rep.LagP999NS = lag.P999()
	rep.LagMaxNS = lag.Quantile(1)
	rep.WallDuration = time.Since(wallStart)

	for _, s := range shards {
		s.rt.Close()
	}
	return rep, nil
}

func newShard(cfg *Config, idx, conns int) (*shard, error) {
	rt, vd := timer.NewVirtualRuntime(
		timer.WithGranularity(cfg.Granularity),
		// The hybrid wheel hosts the span from sub-second RTOs to
		// multi-hour activity gaps and supports NextExpiry, so the
		// virtual driver can jump idle stretches instead of ticking
		// through them.
		timer.WithScheme(timer.NewHybridWheel(4096)),
		// Virtual advances arrive as one long jump per idle span; that
		// is the simulator working as designed, not a clock anomaly.
		timer.WithMaxCatchUp(0),
	)
	s := &shard{
		cfg:   cfg,
		rt:    rt,
		vd:    vd,
		rng:   rand.New(rand.NewSource(cfg.Seed + int64(idx))),
		conns: make([]conn, conns),
	}
	for i := range s.conns {
		i := i
		c := &s.conns[i]
		c.idleFn = func() { s.onIdle(i) }
		c.rtxFn = func() { s.onRetransmit(i) }
		c.ackFn = func() { s.onAck(i) }
		c.open = true
		// Stagger the initial deadlines across the idle window so the
		// fleet doesn't open with one synchronized mega-tick.
		d := time.Duration(1 + s.rng.Int63n(int64(cfg.IdleTimeout)))
		t, err := rt.AfterFunc(d, c.idleFn)
		if err != nil {
			return nil, fmt.Errorf("fleet: arming shard %d conn %d: %w", idx, i, err)
		}
		c.idle = t
	}
	// Rate limiters: plain periodic expiries.
	for j := 0; j < cfg.Limiters; j++ {
		if _, err := rt.Every(cfg.RefillEvery, func() { s.refillTicks++ }); err != nil {
			return nil, fmt.Errorf("fleet: limiter on shard %d: %w", idx, err)
		}
	}
	// The traffic pacer: once per virtual second, deal this shard's
	// share of the fleet-wide activity rate over randomly drawn
	// connections.
	if _, err := rt.Every(time.Second, s.pace); err != nil {
		return nil, fmt.Errorf("fleet: pacer on shard %d: %w", idx, err)
	}
	return s, nil
}

// run advances the shard hour by hour to its horizon.
func (s *shard) run(idx int) {
	horizon := s.vd.Clock().Now().Add(s.cfg.Duration)
	for chunk := time.Duration(0); chunk < s.cfg.Duration; chunk += time.Hour {
		step := time.Hour
		if rem := s.cfg.Duration - chunk; rem < step {
			step = rem
		}
		s.vd.Run(step)
		if s.cfg.Progress != nil {
			s.cfg.Progress(idx, chunk+step)
		}
	}
	// Land exactly on the horizon (chunking never overshoots, but a
	// sub-hour tail may undershoot by rounding).
	s.vd.RunUntil(horizon)
}

// pace applies this second's activity: a Poisson-ish batch over random
// connections, carried fractionally between firings so the long-run
// rate is exact.
func (s *shard) pace() {
	perSecond := float64(len(s.conns)) / s.cfg.ActivityMean.Seconds()
	s.acc += perSecond
	n := int(s.acc)
	s.acc -= float64(n)
	for ; n > 0; n-- {
		s.activity(s.rng.Intn(len(s.conns)))
	}
}

// activity is one burst of traffic on connection i: reopen or push out
// the idle timeout, and exercise the retransmission machinery.
func (s *shard) activity(i int) {
	c := &s.conns[i]
	s.activities++
	if !c.open {
		c.open = true
		s.reopens++
		// A fired timer stays re-armable: the same Timer object serves
		// the connection for the whole run.
		if _, err := c.idle.Reset(s.cfg.IdleTimeout); err != nil {
			return // draining/closed: simulation is over
		}
	} else {
		s.idleResets++
		if _, err := c.idle.Reset(s.cfg.IdleTimeout); err != nil {
			return
		}
	}
	if c.rtx == nil && s.rng.Intn(2) == 0 {
		// This burst includes a send: arm its retransmission timeout,
		// and put the ack on the wire. The ack lands anywhere in
		// [RTO/2, 3·RTO/2): about half beat the RTO (cancelling the
		// retransmission — the almost-always-cancelled case), the rest
		// arrive after it fired.
		t, err := s.rt.AfterFunc(s.cfg.RetransRTO, c.rtxFn)
		if err != nil {
			return
		}
		c.rtx = t
		s.retransStarts++
		ackDelay := s.cfg.RetransRTO/2 + time.Duration(s.rng.Int63n(int64(s.cfg.RetransRTO)))
		if _, err := s.rt.AfterFunc(ackDelay, c.ackFn); err != nil {
			return
		}
	}
}

// onIdle fires when a connection has been quiet for the idle window:
// it closes. The Timer object is retained (fired, not stopped) for the
// reopening Reset.
func (s *shard) onIdle(i int) {
	s.conns[i].open = false
	s.idleCloses++
}

// onRetransmit fires when no ack cancelled the RTO in time.
func (s *shard) onRetransmit(i int) {
	s.conns[i].rtx = nil
	s.retransmissions++
}

// onAck delivers the ack for the connection's in-flight send: if the
// retransmission timer is still pending, cancel it.
func (s *shard) onAck(i int) {
	c := &s.conns[i]
	if c.rtx != nil && c.rtx.Stop() {
		s.acks++
		c.rtx = nil
	}
}
