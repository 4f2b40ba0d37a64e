// Command twtop renders one timingwheels telemetry snapshot as a
// compact text dashboard — the ad-hoc "is the timer facility keeping
// up" view: counters, wheel occupancy, and quantiles estimated from the
// exported histograms.
//
// It consumes the Prometheus text exposition served by
// telemetry.Handler, from one of three places:
//
//	twtop -url http://localhost:8080/metrics   # scrape a live service
//	twtop < metrics.txt                        # render a saved scrape
//	twtop -demo                                # self-contained demo load
//
// One render path covers all three: the exposition is parsed back into
// samples and formatted. Because the input is the exported text — not a
// private API — twtop works against any process serving the handler,
// local or remote.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"timingwheels/internal/hdr"
	"timingwheels/timer"
	"timingwheels/timer/telemetry"
)

func main() {
	url := flag.String("url", "", "scrape this /metrics endpoint (default: read stdin)")
	demo := flag.Bool("demo", false, "run a short in-process demo load and render it")
	flag.Parse()

	var src io.Reader
	switch {
	case *demo:
		var sb strings.Builder
		if err := telemetry.WritePromWith(&sb, demoSnapshot(), demoStageMetrics()...); err != nil {
			fatalf("demo: %v", err)
		}
		src = strings.NewReader(sb.String())
	case *url != "":
		resp, err := http.Get(*url)
		if err != nil {
			fatalf("fetch %s: %v", *url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatalf("fetch %s: %s", *url, resp.Status)
		}
		src = resp.Body
	default:
		src = os.Stdin
	}

	m, err := parseProm(src)
	if err != nil {
		fatalf("parse: %v", err)
	}
	render(os.Stdout, m)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "twtop: "+format+"\n", args...)
	os.Exit(1)
}

// demoSnapshot drives a small runtime through a burst of timers so the
// demo render shows every section populated.
func demoSnapshot() timer.Snapshot {
	rt := timer.NewRuntime(timer.WithGranularity(time.Millisecond))
	defer rt.Close()
	done := make(chan struct{}, 256)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		d := time.Duration(1+rng.Intn(20)) * time.Millisecond
		if _, err := rt.AfterFunc(d, func() { done <- struct{}{} }); err != nil {
			fatalf("demo schedule: %v", err)
		}
	}
	for i := 0; i < 256; i++ {
		<-done
	}
	return rt.Snapshot()
}

// demoStageMetrics synthesizes the twd daemon's stage histograms — the
// same names cmd/twd exports — so the demo render exercises the twd
// panel without a daemon. Shapes are plausible: decode and publish in
// the tens of microseconds, commit dominating admission, fire lag
// around a tick, with a slow tail on commit and push.
func demoStageMetrics() []telemetry.Metric {
	rng := rand.New(rand.NewSource(2))
	synth := func(baseUS, tailUS int) func() timer.HistogramSnapshot {
		h := hdr.New()
		for i := 0; i < 512; i++ {
			ns := int64(baseUS+rng.Intn(baseUS+1)) * 1000
			if i%64 == 0 {
				ns += int64(tailUS) * 1000
			}
			h.Record(ns)
		}
		return h.Snapshot
	}
	m := []telemetry.Metric{
		{Name: "twd_admit_seconds", Help: "End-to-end admission latency.", Hist: synth(900, 24_000), Scale: 1e-9},
		{Name: "twd_fire_seconds", Help: "Deadline-to-fired-ring latency.", Hist: synth(1200, 9_000), Scale: 1e-9},
		{Name: "twd_replica_apply_lag_seconds", Help: "Standby apply lag.", Hist: synth(2500, 30_000), Scale: 1e-9},
	}
	for _, st := range []struct {
		name           string
		baseUS, tailUS int
	}{
		{"decode", 15, 200}, {"append", 60, 900}, {"commit", 700, 22_000},
		{"arm", 40, 400}, {"publish", 8, 90},
		{"fire", 1100, 8_000}, {"enqueue", 70, 600}, {"push", 300, 5_000},
	} {
		m = append(m, telemetry.Metric{Name: "twd_stage_" + st.name + "_seconds",
			Help: "Stage latency.", Hist: synth(st.baseUS, st.tailUS), Scale: 1e-9})
	}
	return m
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le  float64 // upper bound; +Inf for the last
	cum float64
}

// hist is one parsed Prometheus histogram family.
type hist struct {
	buckets    []bucket
	sum, count float64
}

// metrics is the parsed exposition: scalar samples keyed by
// "name{labels}" and histogram families keyed by base name.
type metrics struct {
	scalars map[string]float64
	order   []string // scalar insertion order, for stable labelled output
	hists   map[string]*hist
}

// parseProm reads a Prometheus text exposition, keeping every scalar
// sample and reassembling histogram families from their _bucket/_sum/
// _count samples. Comment lines are skipped; malformed sample lines are
// errors (the format is machine-written).
func parseProm(r io.Reader) (*metrics, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	m := &metrics{scalars: map[string]float64{}, hists: map[string]*hist{}}
	for ln, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("line %d: no value in %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := parseValue(valStr)
		if err != nil {
			return nil, fmt.Errorf("line %d: value %q: %v", ln+1, valStr, err)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			le, err := parseLe(key)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", ln+1, err)
			}
			h := m.histFor(base)
			h.buckets = append(h.buckets, bucket{le: le, cum: val})
		case strings.HasSuffix(name, "_sum") && m.hists[strings.TrimSuffix(name, "_sum")] != nil:
			m.histFor(strings.TrimSuffix(name, "_sum")).sum = val
		case strings.HasSuffix(name, "_count") && m.hists[strings.TrimSuffix(name, "_count")] != nil:
			m.histFor(strings.TrimSuffix(name, "_count")).count = val
		default:
			if _, seen := m.scalars[key]; !seen {
				m.order = append(m.order, key)
			}
			m.scalars[key] = val
		}
	}
	for name, h := range m.hists {
		sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].le < h.buckets[j].le })
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i].cum < h.buckets[i-1].cum {
				return nil, fmt.Errorf("%s: cumulative counts decrease at le=%g", name, h.buckets[i].le)
			}
		}
	}
	return m, nil
}

func (m *metrics) histFor(base string) *hist {
	h := m.hists[base]
	if h == nil {
		h = &hist{}
		m.hists[base] = h
	}
	return h
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return inf, nil
	case "-Inf":
		return -inf, nil
	}
	return strconv.ParseFloat(s, 64)
}

var inf = math.Inf(1)

// parseLe extracts the le label from a _bucket sample key.
func parseLe(key string) (float64, error) {
	i := strings.Index(key, `le="`)
	if i < 0 {
		return 0, fmt.Errorf("bucket sample %q has no le label", key)
	}
	rest := key[i+4:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return 0, fmt.Errorf("bucket sample %q: unterminated le", key)
	}
	return parseValue(rest[:j])
}

// quantile estimates q from the cumulative buckets: the upper bound of
// the first bucket whose cumulative count reaches rank q*count (the
// same upper-bound convention the histograms were built with, so the
// estimate matches hdr.Snapshot.Quantile to within one bucket).
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * h.count
	for _, b := range h.buckets {
		if b.cum >= rank {
			return b.le
		}
	}
	return inf
}

// scalar returns a sample by exact key (including labels), or 0.
func (m *metrics) scalar(key string) float64 { return m.scalars[key] }

// render writes the dashboard.
func render(w io.Writer, m *metrics) {
	g := func(name string) float64 { return m.scalar("timingwheels_" + name) }
	fmt.Fprintf(w, "timingwheels  shards=%.0f  granularity=%s  now=%.0f ticks  outstanding=%.0f\n",
		g("shards"), time.Duration(g("granularity_seconds")*1e9), g("now_ticks"), g("outstanding_timers"))
	fmt.Fprintf(w, "  timers    started=%.0f expired=%.0f stopped=%.0f delivered=%.0f abandoned=%.0f\n",
		g("started_total"), g("expired_total"), g("stopped_total"),
		g("delivered_total"), g("abandoned_on_close_total"))
	fmt.Fprintf(w, "  health    panics=%.0f slow=%.0f anomalies=%.0f behind=%.0f ticks\n",
		g("panics_recovered_total"), g("slow_callbacks_total"),
		g("clock_anomalies_total"), g("ticks_behind"))
	fmt.Fprintf(w, "  wheel     slots=%.0f occupied=%.0f max-depth=%.0f migrations=%.0f\n",
		g("wheel_slots"), g("wheel_occupied_slots"), g("wheel_max_slot_depth"), g("wheel_migrations_total"))
	for _, key := range m.order {
		if strings.HasPrefix(key, "timingwheels_wheel_level_timers{") {
			fmt.Fprintf(w, "  %s %.0f\n", strings.TrimPrefix(key, "timingwheels_"), m.scalars[key])
		}
	}
	for _, name := range []string{
		"timingwheels_firing_lag_seconds",
		"timingwheels_callback_duration_seconds",
		"timingwheels_tick_batch_size",
	} {
		h := m.hists[name]
		if h == nil {
			continue
		}
		short := strings.TrimPrefix(name, "timingwheels_")
		if strings.HasSuffix(name, "_seconds") {
			fmt.Fprintf(w, "  %-28s count=%.0f p50=%s p99=%s p999=%s\n", short, h.count,
				durStr(h.quantile(0.50)), durStr(h.quantile(0.99)), durStr(h.quantile(0.999)))
		} else {
			fmt.Fprintf(w, "  %-28s count=%.0f p50=%.0f p99=%.0f p999=%.0f\n", short, h.count,
				h.quantile(0.50), h.quantile(0.99), h.quantile(0.999))
		}
	}
	renderTwd(w, m)
}

// twdAdmitStages and twdFireStages mirror cmd/twd's stage order, so the
// panel reads in causal order rather than alphabetically.
var (
	twdAdmitStages = []string{"decode", "append", "commit", "arm", "publish"}
	twdFireStages  = []string{"fire", "enqueue", "push"}
)

// renderTwd adds the daemon panels — admission and fire stage
// decomposition, and standby replication lag — when the scraped
// exposition came from a twd /metrics endpoint. The exporter prefixes
// every family with timingwheels_, so the daemon's metrics arrive as
// timingwheels_twd_*. A bare facility scrape has none of these
// families and prints nothing extra.
func renderTwd(w io.Writer, m *metrics) {
	row := func(indent, label, name string) {
		h := m.hists["timingwheels_"+name]
		if h == nil || h.count == 0 {
			return
		}
		fmt.Fprintf(w, "%s%-*s count=%.0f p50=%s p99=%s p999=%s\n", indent, 30-len(indent), label,
			h.count, durStr(h.quantile(0.50)), durStr(h.quantile(0.99)), durStr(h.quantile(0.999)))
	}
	hasAdmit := m.hists["timingwheels_twd_admit_seconds"] != nil
	hasFire := m.hists["timingwheels_twd_fire_seconds"] != nil
	if hasAdmit || hasFire {
		fmt.Fprintf(w, "twd stages\n")
	}
	if hasAdmit {
		row("  ", "admit (end-to-end)", "twd_admit_seconds")
		for _, st := range twdAdmitStages {
			row("    ", st, "twd_stage_"+st+"_seconds")
		}
	}
	if hasFire {
		row("  ", "fire (deadline->ring)", "twd_fire_seconds")
		for _, st := range twdFireStages {
			row("    ", st, "twd_stage_"+st+"_seconds")
		}
	}
	if h := m.hists["timingwheels_twd_replica_apply_lag_seconds"]; h != nil && h.count > 0 {
		fmt.Fprintf(w, "twd replication\n")
		row("  ", "apply lag", "twd_replica_apply_lag_seconds")
	}
}

// durStr renders a quantile in seconds as a rounded duration.
func durStr(sec float64) string {
	if sec >= inf {
		return "inf"
	}
	return time.Duration(sec * 1e9).Round(time.Microsecond).String()
}
