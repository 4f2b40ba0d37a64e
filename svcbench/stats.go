package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (sorting xs), or 0
// when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// sample is one measurement stamped with the window second it belongs to.
type sample struct {
	sec int
	v   float64
}

func values(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.v
	}
	return out
}

// tailSupport is how many samples a quantile must have beyond it in
// every interval it is taken over.
const tailSupport = 10

// beyond is how many of n samples lie past their nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// intervalQuantiles splits the window into consecutive intervals of whole
// seconds and returns each interval's q-quantile, and the fewest samples
// any interval holds beyond its quantile. An interval is the fewest
// seconds that put tailSupport samples beyond the quantile: one second
// for a median at the rates the workloads send, several seconds or the
// whole window for a p99 of sparse fires. A remainder too small to be an
// interval of its own joins the last one.
func intervalQuantiles(ss []sample, q float64) ([]float64, int) {
	by := map[int][]float64{}
	for _, s := range ss {
		by[s.sec] = append(by[s.sec], s.v)
	}
	secs := make([]int, 0, len(by))
	for k := range by {
		secs = append(secs, k)
	}
	sort.Ints(secs)
	var groups [][]float64
	var cur []float64
	for _, k := range secs {
		cur = append(cur, by[k]...)
		if beyond(len(cur), q) >= tailSupport {
			groups, cur = append(groups, cur), nil
		}
	}
	switch {
	case len(cur) > 0 && len(groups) == 0:
		groups = append(groups, cur)
	case len(cur) > 0:
		groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	}
	qs := make([]float64, len(groups))
	least := 0
	for i, g := range groups {
		if b := beyond(len(g), q); i == 0 || b < least {
			least = b
		}
		qs[i] = quantile(g, q)
	}
	return qs, least
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
