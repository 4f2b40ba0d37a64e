package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"timingwheels/internal/hdr"
	"timingwheels/timer"
)

// buildSource runs a runtime through a representative life and
// returns it for export: some fires and a stop.
func buildSource(t *testing.T) *timer.Runtime {
	t.Helper()
	rt := timer.NewRuntime(
		timer.WithGranularity(time.Millisecond),
		timer.WithTrace(64),
	)
	t.Cleanup(func() { rt.Close() })
	done := make(chan struct{}, 16)
	for i := 0; i < 16; i++ {
		if _, err := rt.AfterFunc(3*time.Millisecond, func() { done <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
	}
	victim, err := rt.AfterFunc(time.Hour, func() {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("timers did not fire")
		}
	}
	victim.Stop()
	return rt
}

var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\}$`)
)

// validateExposition checks every line of a text exposition against the
// 0.0.4 grammar — HELP/TYPE comments, then samples whose metric name
// belongs to the declared family (allowing the _bucket/_sum/_count
// suffixes for histograms), with parseable values and well-formed label
// sets — and returns the family -> type map for membership assertions.
func validateExposition(t *testing.T, out string) map[string]string {
	t.Helper()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition must end in a newline")
	}
	families := map[string]string{} // name -> type
	var current string
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line", i+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			if !helpRe.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if _, dup := families[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", i+1, m[1])
			}
			families[m[1]] = m[2]
			current = m[1]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", i+1, line)
		}
		name, labels, value := m[1], m[2], m[3]
		base := name
		if families[current] == "histogram" {
			base = strings.TrimSuffix(base, "_bucket")
			base = strings.TrimSuffix(base, "_sum")
			base = strings.TrimSuffix(base, "_count")
		}
		if base != current {
			t.Fatalf("line %d: sample %s outside its TYPE family %s", i+1, name, current)
		}
		if labels != "" && !labelRe.MatchString(labels) {
			t.Fatalf("line %d: malformed labels %q", i+1, labels)
		}
		if value != "+Inf" {
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Fatalf("line %d: bad value %q: %v", i+1, value, err)
			}
		}
	}
	return families
}

// TestPromOutputParsesLineByLine validates the base exposition against
// the text-format grammar and asserts the core families are present.
func TestPromOutputParsesLineByLine(t *testing.T) {
	rt := buildSource(t)
	var sb strings.Builder
	if err := WriteProm(&sb, rt.Snapshot()); err != nil {
		t.Fatal(err)
	}
	families := validateExposition(t, sb.String())

	for _, want := range []string{
		"timingwheels_started_total",
		"timingwheels_outstanding_timers",
		"timingwheels_firing_lag_seconds",
		"timingwheels_callback_duration_seconds",
		"timingwheels_tick_batch_size",
		"timingwheels_wheel_slots",
		"timingwheels_delivered_total",
	} {
		if _, ok := families[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}
}

// TestPromHistogramsAreCumulative checks the histogram invariants the
// Prometheus scraper relies on: bucket counts nondecreasing in le
// order, the +Inf bucket equal to _count, and _count consistent with
// the runtime's delivered totals.
func TestPromHistogramsAreCumulative(t *testing.T) {
	rt := buildSource(t)
	var sb strings.Builder
	if err := WriteProm(&sb, rt.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"timingwheels_firing_lag_seconds",
		"timingwheels_callback_duration_seconds",
		"timingwheels_tick_batch_size",
	} {
		var prevLe, prevCum float64 = -1, -1
		var infCount, count float64 = -1, -2
		for _, line := range strings.Split(sb.String(), "\n") {
			switch {
			case strings.HasPrefix(line, metric+"_bucket{le=\"+Inf\"}"):
				infCount, _ = strconv.ParseFloat(strings.Fields(line)[1], 64)
			case strings.HasPrefix(line, metric+"_bucket{le="):
				parts := strings.Fields(line)
				le, err := strconv.ParseFloat(strings.Trim(strings.TrimSuffix(strings.TrimPrefix(parts[0], metric+`_bucket{le=`), "}"), `"`), 64)
				if err != nil {
					t.Fatalf("%s: bad le in %q: %v", metric, line, err)
				}
				cum, _ := strconv.ParseFloat(parts[1], 64)
				if le <= prevLe {
					t.Fatalf("%s: le %v not increasing after %v", metric, le, prevLe)
				}
				if cum < prevCum {
					t.Fatalf("%s: cumulative count %v decreased after %v", metric, cum, prevCum)
				}
				prevLe, prevCum = le, cum
			case strings.HasPrefix(line, metric+"_count"):
				count, _ = strconv.ParseFloat(strings.Fields(line)[1], 64)
			}
		}
		if infCount != count {
			t.Fatalf("%s: +Inf bucket %v != _count %v", metric, infCount, count)
		}
		if prevCum > count {
			t.Fatalf("%s: last bucket %v exceeds _count %v", metric, prevCum, count)
		}
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	rt := buildSource(t)
	rec := httptest.NewRecorder()
	Handler(rt).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type %q lacks text format version", ct)
	}
	if !strings.Contains(rec.Body.String(), "timingwheels_started_total 17") {
		t.Fatalf("body missing started counter:\n%s", rec.Body.String()[:200])
	}
}

func TestShardedIsASource(t *testing.T) {
	s := timer.NewSharded(2, timer.WithGranularity(time.Millisecond))
	defer s.Close()
	var src Source = s // compile-time: Sharded satisfies Source
	var sb strings.Builder
	if err := WriteProm(&sb, src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "timingwheels_shards 2") {
		t.Fatal("sharded snapshot did not export shard count")
	}
}

func TestPublishExposesJSON(t *testing.T) {
	rt := buildSource(t)
	Publish("timingwheels-test", rt)
	// expvar.Func renders via json.Marshal; round-trip it.
	v := rt.Snapshot()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Scheme", "Health", "FiringLagNS", "TickBatch"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("snapshot JSON missing %s: %s", key, raw[:120])
		}
	}
}

// TestHandlerWithAppendsExtraMetrics checks the externally-owned
// samples: counters and gauges land after the snapshot's own series,
// correctly typed and prefixed, and parse under the text-format
// grammar like everything else.
func TestHandlerWithAppendsExtraMetrics(t *testing.T) {
	rt := buildSource(t)
	h := HandlerWith(rt,
		Metric{Name: "wal_appends_total", Help: "Records appended to the WAL.", Value: func() float64 { return 42 }},
		Metric{Name: "leases_active", Help: "Live client leases.", Gauge: true, Value: func() float64 { return 3 }},
		Metric{Name: "broken", Help: "Nil Value must be skipped."},
	)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE timingwheels_wal_appends_total counter",
		"timingwheels_wal_appends_total 42",
		"# TYPE timingwheels_leases_active gauge",
		"timingwheels_leases_active 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(body, "broken") {
		t.Error("nil-Value metric was exported")
	}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if m := sampleRe.FindStringSubmatch(line); m == nil {
			t.Fatalf("line %d: malformed sample: %q", i+1, line)
		}
	}
}

// TestHandlerWithHistogramExtras covers the stage-histogram hook that
// cmd/twd uses for its latency decomposition: extras carrying a Hist
// snapshot must render as full, cumulative, grammar-clean Prometheus
// histograms interleaved with the snapshot's own families.
func TestHandlerWithHistogramExtras(t *testing.T) {
	rt := buildSource(t)

	commit := hdr.New()
	for _, ns := range []int64{1_200_000, 3_000_000, 95_000_000} {
		commit.Record(ns)
	}
	lag := hdr.New()
	lag.Record(40_000_000)

	h := HandlerWith(rt,
		Metric{Name: "twd_stage_commit_seconds", Help: "Group-commit wait per admission.",
			Hist: func() hdr.Snapshot { return commit.Snapshot() }, Scale: 1e-9},
		Metric{Name: "twd_replica_apply_lag_seconds", Help: "Standby apply lag behind the primary.",
			Hist: func() hdr.Snapshot { return lag.Snapshot() }, Scale: 1e-9},
		Metric{Name: "twd_wal_appends_total", Help: "Scalar extras still work alongside.",
			Value: func() float64 { return 7 }},
	)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	families := validateExposition(t, body)
	for name, typ := range map[string]string{
		"timingwheels_twd_stage_commit_seconds":      "histogram",
		"timingwheels_twd_replica_apply_lag_seconds": "histogram",
		"timingwheels_twd_wal_appends_total":         "counter",
	} {
		if got := families[name]; got != typ {
			t.Errorf("family %s = %q, want %q", name, got, typ)
		}
	}

	// The commit histogram must be cumulative and account for all 3
	// observations, with the sum converted to seconds.
	if !strings.Contains(body, `timingwheels_twd_stage_commit_seconds_bucket{le="+Inf"} 3`) {
		t.Error("commit histogram +Inf bucket != 3")
	}
	if !strings.Contains(body, "timingwheels_twd_stage_commit_seconds_count 3") {
		t.Error("commit histogram _count != 3")
	}
	wantSum := strconv.FormatFloat(float64(1_200_000+3_000_000+95_000_000)*1e-9, 'g', -1, 64)
	if !strings.Contains(body, "timingwheels_twd_stage_commit_seconds_sum "+wantSum) {
		t.Errorf("commit histogram _sum %s missing", wantSum)
	}
	var prev float64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "timingwheels_twd_stage_commit_seconds_bucket{le=") ||
			strings.Contains(line, "+Inf") {
			continue
		}
		cum, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
		if cum < prev {
			t.Fatalf("commit buckets not cumulative: %v after %v", cum, prev)
		}
		prev = cum
	}
}
