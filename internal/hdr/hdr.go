// Package hdr provides a fixed-size, lock-free, log-linear histogram
// in the style of HDR histograms: values are bucketed into power-of-two
// decades with a linear sub-bucket grid inside each decade, so the
// relative quantization error is bounded by the sub-bucket width
// (1/32 ≈ 3.1%) across the whole int64 range.
//
// The histogram exists to make the paper's cost model observable in
// production: Varghese & Lauck argue about *distributions* of per-tick
// work and expiry latency, not averages, and Lawn-style large-scale
// timer workloads are judged by their tails. Recording is a handful of
// atomic operations on a preallocated array — no locks, no allocation —
// so the timer runtime's zero-alloc hot path can record firing lag,
// callback duration, queue wait, and batch sizes without perturbing
// what it measures. Reading (Snapshot, Quantile, Merge) is the slow
// path and may allocate freely.
package hdr

import (
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	// subBits sets the linear resolution inside each power-of-two
	// decade: 2^subBits sub-buckets in decade zero, half that in every
	// later decade (the lower half of each decade overlaps the previous
	// one). Larger means finer quantiles and a bigger array.
	subBits = 6
	// subCount is the number of values decade zero resolves exactly.
	subCount = 1 << subBits
	// half is the sub-buckets per decade past the first.
	half = subCount / 2

	// NumBuckets is the fixed bucket-array length. Decade zero
	// contributes subCount buckets (one per exact value 0..subCount-1);
	// each of the remaining 63-subBits decades (values are int64, so
	// the top bit is never set) contributes half. The last bucket's
	// upper bound is exactly math.MaxInt64.
	NumBuckets = subCount + (63-subBits)*half
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	exp := bits.Len64(u)
	if exp <= subBits {
		return int(u) // exact: one bucket per value
	}
	d := exp - subBits       // decade ≥ 1
	sub := int(u >> uint(d)) // in [half, subCount)
	return subCount + (d-1)*half + (sub - half)
}

// upperBound returns the largest value bucket i holds.
func upperBound(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	d := (i-subCount)/half + 1
	sub := (i-subCount)%half + half
	u := (uint64(sub+1) << uint(d)) - 1
	if u > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(u)
}

// UpperBound reports the largest value the i-th bucket covers
// (0 <= i < NumBuckets). Bucket upper bounds are shared by every
// Histogram, which is what makes snapshots mergeable bucket-by-bucket
// and exportable as cumulative Prometheus buckets.
func UpperBound(i int) int64 { return upperBound(i) }

// Histogram is a fixed-size concurrent histogram of int64 values
// (negative values are clamped to zero). All methods are safe for
// concurrent use; Record never allocates and never takes a lock.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// New returns an empty histogram.
func New() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Record adds one observation. Lock-free and allocation-free: a few
// atomic adds plus bounded CAS loops for the min/max watermarks.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the current state into an immutable, mergeable view.
// Concurrent Records during the copy may be partially included (each
// counter is read atomically; the set is not a consistent cut), which
// is the usual monitoring trade-off: counts never go backwards.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Counts: make([]uint64, NumBuckets),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Min:    h.min.Load(),
		Max:    h.max.Load(),
	}
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Snapshot is a point-in-time copy of a Histogram, suitable for
// quantile readout, cross-shard merging, and export.
type Snapshot struct {
	// Counts holds one entry per bucket (see UpperBound); len is
	// NumBuckets, or 0 for a zero-value snapshot.
	Counts []uint64
	// Count is the total number of observations.
	Count uint64
	// Sum is the exact sum of recorded values (not quantized).
	Sum int64
	// Min and Max are exact watermarks (0 when Count == 0).
	Min int64
	Max int64
}

// Merge accumulates o into s, growing s's bucket array if s was a
// zero-value snapshot. Two merged snapshots answer quantile queries
// over the union of their observations — the cross-shard readout path.
func (s *Snapshot) Merge(o Snapshot) {
	if o.Count == 0 {
		return
	}
	if s.Counts == nil {
		s.Counts = make([]uint64, NumBuckets)
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Mean reports the exact arithmetic mean (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile reports the value at quantile q in [0, 1]: the smallest
// bucket upper bound v such that at least ceil(q*Count) observations
// are <= v. The answer is exact for values below 64 and within one
// sub-bucket (relative error <= 1/32) above; Min and Max tighten the
// extremes so Quantile(0) and Quantile(1) are exact.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank >= s.Count {
		return s.Max
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			v := upperBound(i)
			if v > s.Max {
				v = s.Max
			}
			if v < s.Min {
				v = s.Min
			}
			return v
		}
	}
	return s.Max
}

// P50, P99 and P999 are the conventional readouts.
func (s Snapshot) P50() int64 { return s.Quantile(0.50) }

// P99 reports the 99th percentile.
func (s Snapshot) P99() int64 { return s.Quantile(0.99) }

// P999 reports the 99.9th percentile.
func (s Snapshot) P999() int64 { return s.Quantile(0.999) }
