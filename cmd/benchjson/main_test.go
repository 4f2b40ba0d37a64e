package main

import "testing"

// TestGate pins the regression rules the gate applies against its
// reference, whichever it is: more than 10% slower in ns/op fails, an
// allocation-free benchmark that now allocates fails, reference-only
// stdlib series and benchmarks missing from the reference never fail.
func TestGate(t *testing.T) {
	ref := map[string]Metrics{
		"BenchmarkA":               {NsPerOp: 100},
		"BenchmarkB":               {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkVsStdlib/stdlib": {NsPerOp: 100},
	}
	for _, tc := range []struct {
		name  string
		after Metrics
		want  bool
	}{
		{"BenchmarkA", Metrics{NsPerOp: 110}, true},
		{"BenchmarkA", Metrics{NsPerOp: 111}, false},
		{"BenchmarkA", Metrics{NsPerOp: 50}, true},
		{"BenchmarkB", Metrics{NsPerOp: 90, AllocsPerOp: 1}, false},
		{"BenchmarkVsStdlib/stdlib", Metrics{NsPerOp: 500, AllocsPerOp: 3}, true},
		{"BenchmarkNew", Metrics{NsPerOp: 500, AllocsPerOp: 3}, true},
	} {
		if got := gate([]Result{{Name: tc.name, After: tc.after}}, ref); got != tc.want {
			t.Errorf("gate(%s %+v) = %v, want %v", tc.name, tc.after, got, tc.want)
		}
	}
}

// TestParseKeepsFastest: repeated names (from -count, or interleaved
// runs concatenated into one file) keep the fastest line.
func TestParseKeepsFastest(t *testing.T) {
	out := "goos: linux\n" +
		"BenchmarkA-2   100   120.5 ns/op   0 B/op   0 allocs/op\n" +
		"BenchmarkA-2   100   101.0 ns/op   0 B/op   0 allocs/op\n" +
		"BenchmarkA-2   100   130.0 ns/op   0 B/op   0 allocs/op\n"
	var rep Report
	rs := parseBenchOutput(out, &rep)
	if len(rs) != 1 || rs[0].After.NsPerOp != 101 || rep.GoOS != "linux" {
		t.Fatalf("parsed %+v (goos %q), want one BenchmarkA-2 at 101 ns/op", rs, rep.GoOS)
	}
}
