// Command benchjson runs the runtime-facing benchmarks (the concurrent
// AfterFunc+Stop hot path of Appendix A.2) with -benchmem and emits a
// machine-readable JSON summary, optionally merged with a baseline run
// for before/after comparison. It backs `make bench`, which commits the
// result as BENCH_<n>.json at the repository root so hot-path
// regressions show up in review as a diff, not a vibe.
//
// Usage:
//
//	benchjson [-bench regexp] [-baseline file] [-compare BENCH_n.json] [-o out.json] [-count n]
//
// The baseline file is plain `go test -bench` output from an earlier
// commit; its ns/op, B/op, and allocs/op are embedded verbatim under
// "before" for each benchmark name that also appears in the fresh run.
//
// The run is a regression gate whenever it has a reference: the process
// exits nonzero if any shared benchmark's ns/op exceeds the reference by
// more than 10%, or if a benchmark that was allocation-free (0
// allocs/op) now allocates. Reference series (names containing
// "stdlib") are reported but never gate — they measure the standard
// library, not this repository. The reference is the -baseline run when
// one is given: numbers taken on the same machine in the same window,
// so the gate measures the code rather than the box's speed on the day.
// Without -baseline, -compare names a previously committed
// BENCH_<n>.json whose numbers are the reference and also the "before"
// column of the fresh output.
//
// -input skips running go test and parses a saved `go test -bench`
// output instead (repeated benchmark names keep the fastest run, as
// with -count). This is how to produce a fair before/after pair on a
// noisy machine: alternate benchmark runs of the two trees A B A B …
// in one window, concatenate the A outputs and the B outputs, and feed
// each file through -input — slow drift then hits both sides equally
// instead of whichever tree happened to run second.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Metrics holds one benchmark line's numbers.
type Metrics struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Result pairs a benchmark with its fresh numbers and, when a baseline
// was supplied and contains the same benchmark, the old numbers plus
// the ns/op speedup ratio (before / after; > 1 means faster now).
type Result struct {
	Name    string   `json:"name"`
	After   Metrics  `json:"after"`
	Before  *Metrics `json:"before,omitempty"`
	Speedup float64  `json:"speedup_ns_per_op,omitempty"`
}

// Report is the top-level BENCH_*.json document.
type Report struct {
	GeneratedAt string   `json:"generated_at"`
	GoOS        string   `json:"goos,omitempty"`
	GoArch      string   `json:"goarch,omitempty"`
	CPU         string   `json:"cpu,omitempty"`
	BenchRegexp string   `json:"bench_regexp"`
	Benchmarks  []Result `json:"benchmarks"`
}

func main() {
	bench := flag.String("bench", "BenchmarkRuntimeConcurrent|BenchmarkVsStdlib|BenchmarkRuntimeIngress|BenchmarkWALAppend|BenchmarkWALStream|BenchmarkAdmitTraced|BenchmarkResetHeavy",
		"benchmark regexp passed to go test -bench")
	baseline := flag.String("baseline", "", "prior go test -bench output: the before numbers, and the gate's reference")
	compare := flag.String("compare", "", "prior BENCH_<n>.json to gate against when no -baseline is given (>10% ns/op or 0->N allocs/op fails)")
	out := flag.String("o", "BENCH_2.json", "output JSON path")
	count := flag.Int("count", 1, "-count passed to go test")
	pkg := flag.String("pkg", ".", "package to benchmark")
	input := flag.String("input", "", "saved go test -bench output to parse instead of running go test")
	flag.Parse()

	var raw []byte
	if *input != "" {
		var err error
		raw, err = os.ReadFile(*input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: input: %v\n", err)
			os.Exit(1)
		}
	} else {
		cmd := exec.Command("go", "test", "-run=NONE",
			"-bench="+*bench, "-benchmem", "-count="+strconv.Itoa(*count), *pkg)
		cmd.Stderr = os.Stderr
		var err error
		raw, err = cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: go test failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(string(raw))
	}

	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		BenchRegexp: *bench,
	}
	fresh := parseBenchOutput(string(raw), &rep)
	if len(fresh) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in go test output")
		os.Exit(1)
	}

	before := make(map[string]Metrics)
	if *baseline != "" {
		b, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
			os.Exit(1)
		}
		for _, r := range parseBenchOutput(string(b), nil) {
			before[r.Name] = r.After
		}
	}

	// ref is what the gate compares against: the same-window baseline
	// if there is one, else the committed report.
	var ref map[string]Metrics
	switch {
	case *baseline != "":
		ref = before
	case *compare != "":
		before = readReport(*compare)
		ref = before
	}

	for _, r := range fresh {
		if m, ok := before[r.Name]; ok {
			mm := m
			r.Before = &mm
			if r.After.NsPerOp > 0 {
				r.Speedup = m.NsPerOp / r.After.NsPerOp
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, *r)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))

	if ref != nil && !gate(rep.Benchmarks, ref) {
		os.Exit(1)
	}
}

// maxRegression is the ns/op slack the gate allows before calling a
// benchmark regressed: even a same-window baseline is a different
// (possibly loaded) run, so a tolerance is needed, but a hot-path
// slowdown past 10% is a finding, not noise.
const maxRegression = 1.10

// readReport loads a committed BENCH_<n>.json and indexes its "after"
// numbers by benchmark name.
func readReport(path string) map[string]Metrics {
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: compare: %v\n", err)
		os.Exit(1)
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: compare %s: %v\n", path, err)
		os.Exit(1)
	}
	m := make(map[string]Metrics, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		m[r.Name] = r.After
	}
	return m
}

// gate checks every fresh benchmark that also appears in the reference,
// printing a verdict per line; it reports false if any gated benchmark
// regressed past maxRegression in ns/op or gained allocations after
// being allocation-free.
func gate(fresh []Result, ref map[string]Metrics) bool {
	ok := true
	for _, r := range fresh {
		old, found := ref[r.Name]
		if !found {
			continue
		}
		if strings.Contains(r.Name, "stdlib") {
			fmt.Fprintf(os.Stderr, "benchjson: compare %-45s reference only (%.1f -> %.1f ns/op)\n",
				r.Name, old.NsPerOp, r.After.NsPerOp)
			continue
		}
		verdict := "ok"
		if old.NsPerOp > 0 && r.After.NsPerOp > old.NsPerOp*maxRegression {
			verdict = fmt.Sprintf("REGRESSION: %.1f -> %.1f ns/op (+%.1f%%)",
				old.NsPerOp, r.After.NsPerOp, 100*(r.After.NsPerOp/old.NsPerOp-1))
			ok = false
		}
		if old.AllocsPerOp == 0 && r.After.AllocsPerOp > 0 {
			verdict = fmt.Sprintf("REGRESSION: hot path now allocates (%d allocs/op, was 0)",
				r.After.AllocsPerOp)
			ok = false
		}
		fmt.Fprintf(os.Stderr, "benchjson: compare %-45s %s\n", r.Name, verdict)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchjson: hot-path regression gate FAILED")
	}
	return ok
}

// parseBenchOutput extracts benchmark lines from go test output in
// declaration order. Lines look like:
//
//	BenchmarkX/sub-8   1064222   373.7 ns/op   184 B/op   4 allocs/op
//
// When rep is non-nil the goos/goarch/cpu header lines are captured
// into it. With -count > 1 the fastest (minimum ns/op) line per name
// wins: the minimum is the standard noise-robust estimator for a
// benchmark's true cost — scheduler preemption and noisy neighbors
// only ever add time — so repeated runs tighten the gate instead of
// averaging interference into it.
func parseBenchOutput(s string, rep *Report) (ordered []*Result) {
	results := make(map[string]Metrics)
	var order []string
	for _, line := range strings.Split(s, "\n") {
		if rep != nil {
			if v, ok := strings.CutPrefix(line, "goos: "); ok {
				rep.GoOS = strings.TrimSpace(v)
				continue
			}
			if v, ok := strings.CutPrefix(line, "goarch: "); ok {
				rep.GoArch = strings.TrimSpace(v)
				continue
			}
			if v, ok := strings.CutPrefix(line, "cpu: "); ok {
				rep.CPU = strings.TrimSpace(v)
				continue
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		// Names are matched verbatim between baseline and fresh runs
		// (including any -GOMAXPROCS suffix): a "sharded-4" sub-benchmark
		// ends in a digit too, so stripping suffixes blindly would corrupt
		// real names. Take baselines on the same GOMAXPROCS.
		name := f[0]
		var m Metrics
		m.Iterations, _ = strconv.ParseInt(f[1], 10, 64)
		for i := 2; i+1 < len(f); i += 2 {
			val, unit := f[i], f[i+1]
			switch unit {
			case "ns/op":
				m.NsPerOp, _ = strconv.ParseFloat(val, 64)
			case "B/op":
				m.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				m.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			}
		}
		if prev, seen := results[name]; !seen {
			order = append(order, name)
			results[name] = m
		} else if m.NsPerOp < prev.NsPerOp {
			results[name] = m
		}
	}
	for _, n := range order {
		m := results[n]
		ordered = append(ordered, &Result{Name: n, After: m})
	}
	return ordered
}
