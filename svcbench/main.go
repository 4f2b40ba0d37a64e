// Command svcbench is the end-to-end benchmark of the twd timer daemon.
// It seeds a resident timer population into a WAL, boots a real twd on
// it, drives open-loop traffic through twclient on one write connection
// while one long poll follows /v1/fired, checks every run against an
// exactly-once oracle, and prints the metrics as one JSON line:
//
//	svcbench -twd twd -work dir -workload admit -seed 1 -seconds 10 -trace 0
//
// With -trace 1 it reports per-layer metrics instead: twd's own /metrics,
// /healthz and /debug/vars deltas over the window, the client's spans,
// and an in-process replay of the same seeded operation stream against
// each layer's API. README.md defines every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one named traffic shape.
type workload struct {
	name     string
	resident int // timers seeded into the WAL before boot
	leases   int // leases granted before the window
	newGen   func(rng *rand.Rand) generator
	// closedReqs is the closed-loop phase's request count, a few
	// seconds' worth at a 2-vCPU box's single-connection peak.
	closedReqs int
}

// Open-loop rates. admitRate is about a sixth of what one connection
// sustains back to back on a 2-vCPU box: below a quarter, so queueing
// does not amplify the box's own speed swings into the latencies.
const (
	admitRate       = 600 // requests/s, stops included
	stormsPerSecond = 5
	stormSize       = 1000
	stormBatch      = 40
	resetRate       = 200 // requests/s
	resetBatch      = 16
)

var workloads = []*workload{
	{
		name: "admit", resident: 100_000, leases: 4, closedReqs: 14000,
		newGen: func(rng *rand.Rand) generator { return &admitGen{rng: rng, rate: admitRate, leases: 4} },
	},
	{
		name: "fire-storm", resident: 50_000, closedReqs: 6000,
		newGen: func(rng *rand.Rand) generator {
			return &stormGen{rng: rng, perSecond: stormsPerSecond, size: stormSize, batch: stormBatch}
		},
	},
	{
		name: "resident-reset", resident: 500_000, closedReqs: 12000,
		newGen: func(rng *rand.Rand) generator { return newResetGen(rng, resetRate, resetBatch, 500_000) },
	},
}

// Phase lengths around the open-loop window.
const (
	windowGrace = 1500 * time.Millisecond // lets the window's last short timers fire
	warmBoots   = 2
	timedBoots  = 7
)

// metric is one reported number.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int // 0 when the value is not a distribution statistic
	// beyond is, for a tail quantile, the fewest samples beyond it in any
	// interval it was taken over.
	beyond int
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: admit, fire-storm or resident-reset")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 10, "length of the open-loop window in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		twdBin  = flag.String("twd", "", "twd binary")
		work    = flag.String("work", "", "directory for run state (WAL, logs, spans)")
	)
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *twdBin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: svcbench -twd BIN -work DIR -workload NAME -seed N -seconds S -trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := benchmark(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *twdBin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	out := map[string]any{"correct": res.correct, "attempted": res.attempted, "failed": res.failed}
	ms := map[string]any{}
	for _, m := range res.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.correct {
		return 1
	}
	return 0
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func benchmark(w *workload, seed int64, window time.Duration, traced bool, twdBin, work string) (*result, error) {
	runDir := filepath.Join(work, fmt.Sprintf("%s-seed%d-pid%d", w.name, seed, os.Getpid()))
	walDir := filepath.Join(runDir, "wal")
	logPath := filepath.Join(runDir, "twd.log")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	// The WAL is tens of megabytes at the largest population; the traced
	// run's spans and dumps are kept.
	defer os.RemoveAll(walDir)
	if !traced {
		defer os.RemoveAll(runDir)
	}

	in := makeInputs(w, seed, window)
	if err := seedWAL(walDir, in.resident, time.Now()); err != nil {
		return nil, err
	}
	d, setups, err := bootTimes(twdBin, walDir, logPath, warmBoots, timedBoots)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, tailLog(logPath, 20))
	}
	defer d.kill()

	ctx := context.Background()
	r, err := newRunner(d.base)
	if err != nil {
		return nil, err
	}
	if err := r.grantLeases(ctx, w.leases); err != nil {
		return nil, err
	}
	r.ensureSlots(slotCount(in.window, in.closed))

	page, err := r.poll.Fired(ctx, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("fired cursor: %w", err)
	}
	pctx, stopPoll := context.WithCancel(ctx)
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		r.pollFired(pctx, page.Next)
	}()
	defer func() {
		stopPoll()
		<-pollDone
	}()

	sc := &scraper{hc: &http.Client{Timeout: 30 * time.Second}, pid: d.cmd.Process.Pid, base: d.base, debug: d.debug}
	// Dirty pages left by set-up are written back now, not during the
	// window. Both processes then start the window straight after a GC,
	// so every run sees the same number of collections in its window.
	syscall.Sync()
	s0, err := sc.take(true)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	runtime.GC()
	genCPU0 := selfCPU()
	r.t0 = time.Now().Add(20 * time.Millisecond)
	cpuTicks := make(chan []time.Duration, 1)
	go func() { cpuTicks <- sampleCPU(d.cmd.Process.Pid, r.t0, window) }()
	r.openLoop(ctx, in.window)
	genCPU := selfCPU() - genCPU0
	r.cpuAt = <-cpuTicks
	time.Sleep(time.Until(r.t0.Add(window + windowGrace)))
	s1, err := sc.take(true)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}

	peak, stall, err := r.closedLoop(ctx, in.closed, sc)
	if err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}

	want, latest := r.expectedFires(time.Now().Add(5 * time.Minute).UnixNano())
	r.awaitFires(want, latest)
	s2, err := sc.take(false)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	ledgerErr := r.check(s2.at.UnixNano(), s0.health, s2.health)
	if len(r.failures) > 0 || ledgerErr != nil {
		for what, n := range r.failures {
			fmt.Fprintf(os.Stderr, "svcbench: oracle: %d × %s\n", n, what)
		}
		if ledgerErr != nil {
			fmt.Fprintln(os.Stderr, "svcbench: oracle:", ledgerErr)
		}
	}

	e2e := endToEnd(r, setups, s1)
	res := &result{correct: r.failed == 0 && ledgerErr == nil, attempted: r.attempted, failed: r.failed}
	fmt.Fprintf(os.Stderr, "svcbench: %s seed=%d window=%v closed-loop=%d requests attempted=%d failed=%d boots=%.4f\n",
		w.name, seed, window, len(in.closed), r.attempted, r.failed, setups)
	printMetrics("end-to-end", e2e)
	if late, _ := r.genLateP99(); late > maxGenLateMS {
		fmt.Fprintf(os.Stderr, "svcbench: INVALID RUN: generator lateness p99 %.1f ms > %d ms; the generator, not twd, was the bottleneck\n",
			late, maxGenLateMS)
	}
	if !traced {
		res.metrics = e2e
		return res, nil
	}

	if err := r.saveTrace(runDir, sc); err != nil {
		return nil, err
	}
	stopPoll()
	<-pollDone
	d.kill()
	layers := perLayer(r, s0, s1, s2, genCPU, stall, peak)
	rep, err := replay(in, seed, filepath.Join(runDir, "replay-wal"))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	layers = append(layers, rep.metrics()...)
	printMetrics("per-layer", layers)
	printLayerTable(w.name, layers)
	res.metrics = layers
	return res, nil
}

// slotCount is the number of generator timer slots the ops reference.
func slotCount(phases ...[]op) int {
	n := 0
	for _, ops := range phases {
		for i := range ops {
			switch ops[i].kind {
			case opSchedule:
				n = max(n, ops[i].slot+1)
			case opBatch:
				n = max(n, ops[i].slot+ops[i].n)
			}
		}
	}
	return n
}

// endToEnd computes the user-visible metrics of the open-loop window.
func endToEnd(r *runner, setups []float64, s1 *scrape) []metric {
	_, ops := r.windowAcks()
	lags := r.windowFireLags()
	lagIv, lagBeyond := intervalQuantiles(lags, 0.99)
	return []metric{
		{name: "setup_s", unit: "s", value: median(setups), samples: len(setups)},
		{name: "fire_lag_p99_ms", unit: "ms", value: median(lagIv), samples: len(lags), beyond: lagBeyond},
		{name: "cpu_us_per_op", unit: "us", value: median(r.cpuPerOp()), samples: ops},
		{name: "heap_mb", unit: "MB", value: float64(s1.mem.HeapAlloc) / 1e6},
	}
}

// windowAcks returns the latency, in ms, of every acked write of the
// window (lease renewals aside), and the window's timer operations.
func (r *runner) windowAcks() ([]sample, int) {
	var acks []sample
	ops := 0
	for i := range r.spans {
		s := &r.spans[i]
		if !s.Window {
			continue
		}
		ops += s.Ops
		if s.OK && s.Kind != opRenew.String() {
			acks = append(acks, sample{r.second(s.DueNS), s.latency().Seconds() * 1e3})
		}
	}
	return acks, ops
}

// sampleCPU reads a process's CPU time at t0 and at every whole second
// after it through the window.
func sampleCPU(pid int, t0 time.Time, window time.Duration) []time.Duration {
	var out []time.Duration
	for k := time.Duration(0); k <= window; k += time.Second {
		time.Sleep(time.Until(t0.Add(k)))
		c, err := procCPU(pid)
		if err != nil {
			return out
		}
		out = append(out, c)
	}
	return out
}

// cpuPerOp is daemon CPU per timer operation in each whole second of the
// window: that second's CPU time over the timer operations due in it, in
// µs. It leaves out seconds carrying fewer than half the operations of
// the busiest.
func (r *runner) cpuPerOp() []float64 {
	ops := make([]int, len(r.cpuAt))
	most := 0
	for i := range r.spans {
		s := &r.spans[i]
		if k := r.second(s.DueNS); s.Window && k >= 0 && k+1 < len(r.cpuAt) {
			ops[k] += s.Ops
			most = max(most, ops[k])
		}
	}
	var per []float64
	for k := 0; k+1 < len(r.cpuAt); k++ {
		if 2*ops[k] >= most && ops[k] > 0 {
			per = append(per, (r.cpuAt[k+1]-r.cpuAt[k]).Seconds()*1e6/float64(ops[k]))
		}
	}
	return per
}

// genLateP99 is the p99, in ms, of how late the generator sent window
// requests whose connection was free at their due instant, and the
// number of such requests.
func (r *runner) genLateP99() (float64, int) {
	var late []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Window && !s.Busy {
			late = append(late, float64(s.SendNS-s.DueNS)/1e6)
		}
	}
	return quantile(late, 0.99), len(late)
}

// maxGenLateMS is the generator lateness p99 past which a run measured
// the generator rather than the daemon; normal is about 1 ms.
const maxGenLateMS = 10

// second is the window second an instant falls in.
func (r *runner) second(ns int64) int { return int((ns - r.t0.UnixNano()) / int64(time.Second)) }

// windowFireLags returns deadline → client receipt, in ms, for every
// timer of the window that fired, stamped with its deadline's second.
func (r *runner) windowFireLags() []sample {
	r.mu.Lock()
	first := make(map[uint64]fireObs, len(r.fires))
	for _, f := range r.fires {
		if _, dup := first[f.ID]; !dup {
			first[f.ID] = f
		}
	}
	r.mu.Unlock()
	var lags []sample
	for _, s := range r.slots {
		if f, ok := first[s.id]; ok && s.window && !s.stopped {
			lags = append(lags, sample{r.second(s.deadline), float64(f.RecvNS-s.deadline) / 1e6})
		}
	}
	for id, sr := range r.resets {
		if f, ok := first[id]; ok && sr.window {
			// A reset's deadline is fired - lag when the fire was late;
			// twd clamps the lag of an early fire to 0, and then the
			// deadline is no earlier than send + after.
			deadline := max(f.FiredNS-f.LagNS, sr.earliest)
			lags = append(lags, sample{r.second(deadline), float64(f.RecvNS-deadline) / 1e6})
		}
	}
	return lags
}

func printMetrics(title string, ms []metric) {
	fmt.Fprintf(os.Stderr, "svcbench: %s\n", title)
	for _, m := range ms {
		switch {
		case m.beyond > 0:
			fmt.Fprintf(os.Stderr, "  %-28s %14.4f %-6s n=%d beyond=%d\n", m.name, m.value, m.unit, m.samples, m.beyond)
		case m.samples > 0:
			fmt.Fprintf(os.Stderr, "  %-28s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
		default:
			fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
}

// saveTrace writes the client's spans and twd's /v1/trace dump beside
// each other in dir.
func (r *runner) saveTrace(dir string, sc *scraper) error {
	f, err := os.Create(filepath.Join(dir, "client-spans.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	r.mu.Lock()
	fires := append([]fireObs(nil), r.fires...)
	r.mu.Unlock()
	sort.Slice(fires, func(i, j int) bool { return fires[i].Seq < fires[j].Seq })
	for i := range fires {
		if err := enc.Encode(&fires[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, "twd-trace.jsonl"))
	if err != nil {
		return err
	}
	if err := sc.get(sc.base+"/v1/trace?facility=1", func(rd io.Reader) error {
		_, err := io.Copy(tf, rd)
		return err
	}); err != nil {
		tf.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "svcbench: spans and twd trace saved in %s\n", dir)
	return tf.Close()
}
