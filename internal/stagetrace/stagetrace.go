// Package stagetrace decomposes a request's end-to-end latency into
// named stages and remembers where the time went.
//
// The timer paper argues from per-operation cost decomposition — start,
// stop, per-tick bookkeeping — and the daemon around the wheel needs
// the same discipline: when an acked timer fires 40ms late, "40ms" is
// not an explanation. A Timeline is the explanation: a bounded list of
// (stage, duration) pairs whose durations sum exactly to the recorded
// total, stamped with a wall-clock start so timelines from different
// processes (primary and standby, client and daemon) can be laid on a
// common axis.
//
// A Recorder aggregates every stage of every timeline into per-stage
// hdr histograms (the /metrics view: distributions, not averages) and
// keeps two bounded exemplar rings in the flight-recorder style: the
// most recent timelines, and the slowest ones over a threshold, both
// dumpable as JSONL for offline analysis with cmd/twtrace. Recording
// is mutex-guarded struct stores into preallocated rings plus atomic
// histogram increments, allocation-free once a (kind, stage) pair's
// histogram exists (the facility's own zero-alloc hot path is
// untouched — it has its own flight recorder).
package stagetrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"timingwheels/internal/hdr"
)

// MaxStages bounds the stages one timeline can hold. Fixed so Timeline
// is a flat value — rings of them never allocate per record.
const MaxStages = 8

// Stage is one named segment of a timeline.
type Stage struct {
	// Name identifies the segment (e.g. "decode", "commit", "push").
	Name string
	// NS is the segment's duration in nanoseconds.
	NS int64
}

// Timeline is one request's (or one timer fire's) latency decomposition.
type Timeline struct {
	// Seq is the recorder-assigned sequence number; gaps in a dump mean
	// the ring wrapped.
	Seq uint64
	// Trace is the request's correlation ID (X-Twd-Trace), threaded
	// from the client through admission to the eventual fire.
	Trace string
	// Kind groups timelines into histogram families: "admit" for the
	// request path, "fire" for the expiry path.
	Kind string
	// ID is the durable timer ID (0 for batch admissions, where Count
	// carries the batch size).
	ID uint64
	// Count is the number of timers the timeline covers.
	Count int
	// StartNS is the wall-clock Unix nanosecond of the first boundary,
	// for cross-process correlation.
	StartNS int64
	// TotalNS is the sum of the stage durations — maintained as an
	// invariant, so a dump is self-checking.
	TotalNS int64
	// NStages is how many of Stages are populated.
	NStages int
	// Stages are the segments in causal order.
	Stages [MaxStages]Stage
}

// Add appends a stage, keeping TotalNS equal to the stage sum.
// Negative durations are clamped to zero (wall-clock deadlines can sit
// in the future of a fire observed through a coarse tick). Appends past
// MaxStages fold into the last stage so the sum invariant survives.
func (tl *Timeline) Add(name string, ns int64) {
	if ns < 0 {
		ns = 0
	}
	if tl.NStages >= MaxStages {
		tl.Stages[MaxStages-1].NS += ns
		tl.TotalNS += ns
		return
	}
	tl.Stages[tl.NStages] = Stage{Name: name, NS: ns}
	tl.NStages++
	tl.TotalNS += ns
}

// AppendJSON renders the timeline as one JSON object (no newline).
func (tl *Timeline) AppendJSON(b []byte) []byte {
	b = fmt.Appendf(b, `{"seq":%d,"trace":%q,"kind":%q,"id":%d,"count":%d,"start_unix_ns":%d,"total_ns":%d,"stages":[`,
		tl.Seq, tl.Trace, tl.Kind, tl.ID, tl.Count, tl.StartNS, tl.TotalNS)
	for i := 0; i < tl.NStages; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"stage":%q,"ns":%d}`, tl.Stages[i].Name, tl.Stages[i].NS)
	}
	return append(b, ']', '}')
}

// jsonTimeline mirrors the wire shape for decoding.
type jsonTimeline struct {
	Seq     uint64 `json:"seq"`
	Trace   string `json:"trace"`
	Kind    string `json:"kind"`
	ID      uint64 `json:"id"`
	Count   int    `json:"count"`
	StartNS int64  `json:"start_unix_ns"`
	TotalNS int64  `json:"total_ns"`
	Stages  []struct {
		Stage string `json:"stage"`
		NS    int64  `json:"ns"`
	} `json:"stages"`
}

// Parse decodes one JSONL line produced by AppendJSON (or Dump). Extra
// stages beyond MaxStages are folded into the last slot, mirroring Add.
func Parse(line []byte) (Timeline, error) {
	var j jsonTimeline
	if err := json.Unmarshal(line, &j); err != nil {
		return Timeline{}, err
	}
	tl := Timeline{
		Seq: j.Seq, Trace: j.Trace, Kind: j.Kind, ID: j.ID,
		Count: j.Count, StartNS: j.StartNS,
	}
	for _, s := range j.Stages {
		tl.Add(s.Stage, s.NS)
	}
	// Trust the sender's total when it disagrees with the stage sum so
	// the analyzer can report the discrepancy rather than mask it.
	tl.TotalNS = j.TotalNS
	return tl, nil
}

// Config sizes a Recorder.
type Config struct {
	// Recent is the capacity of the most-recent-timelines ring
	// (clamped to >= 1).
	Recent int
	// Slow is the capacity of the slow-exemplar ring (clamped >= 1).
	Slow int
	// SlowThreshold is the total latency at or above which a timeline
	// is also copied into the slow ring. Zero keeps every timeline —
	// useful in tests, noisy in production.
	SlowThreshold time.Duration
	// Now supplies timestamps for Begin/Mark spans; nil means time.Now.
	// Durations between marks use the monotonic reading when present.
	Now func() time.Time
}

// Recorder aggregates timelines into per-stage histograms and bounded
// exemplar rings. Safe for concurrent use.
type Recorder struct {
	now    func() time.Time
	slowNS int64

	mu     sync.Mutex
	seq    uint64
	recent []Timeline
	slow   []Timeline
	nSlow  uint64 // total timelines ever admitted to the slow ring

	histMu sync.RWMutex
	hists  map[string]*hdr.Histogram
	// byKind holds the same histogram pointers keyed (kind, stage), so
	// the record path reaches them without building "<kind>_<stage>"
	// key strings — the concatenation was the hot path's only
	// allocation.
	byKind map[string]map[string]*hdr.Histogram
}

// NewRecorder builds a Recorder from cfg.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Recent < 1 {
		cfg.Recent = 1
	}
	if cfg.Slow < 1 {
		cfg.Slow = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Recorder{
		now:    cfg.Now,
		slowNS: cfg.SlowThreshold.Nanoseconds(),
		recent: make([]Timeline, cfg.Recent),
		slow:   make([]Timeline, cfg.Slow),
		hists:  make(map[string]*hdr.Histogram),
		byKind: make(map[string]map[string]*hdr.Histogram),
	}
}

// Hist returns the histogram for key, creating it on first use. The
// returned pointer is stable for the Recorder's lifetime, so callers
// may capture it once (e.g. in a /metrics closure) and snapshot freely.
func (r *Recorder) Hist(key string) *hdr.Histogram {
	r.histMu.RLock()
	h := r.hists[key]
	r.histMu.RUnlock()
	if h != nil {
		return h
	}
	r.histMu.Lock()
	defer r.histMu.Unlock()
	if h = r.hists[key]; h == nil {
		h = hdr.New()
		r.hists[key] = h
	}
	return h
}

// hist returns the histogram for (kind, stage) without allocating a
// key string, creating it — under its canonical "<kind>_<stage>" name,
// so Hist and the exporter see the same instance — on first use.
func (r *Recorder) hist(kind, stage string) *hdr.Histogram {
	r.histMu.RLock()
	h := r.byKind[kind][stage]
	r.histMu.RUnlock()
	if h != nil {
		return h
	}
	h = r.Hist(kind + "_" + stage)
	r.histMu.Lock()
	m := r.byKind[kind]
	if m == nil {
		m = make(map[string]*hdr.Histogram)
		r.byKind[kind] = m
	}
	m[stage] = h
	r.histMu.Unlock()
	return h
}

// Span marks consecutive stage boundaries against the recorder's clock.
// The zero Span is inert: Mark and Finish on it do nothing, so disabled
// tracing costs one nil/zero check at each call site.
type Span struct {
	r    *Recorder
	tl   Timeline
	last time.Time
}

// Begin opens a span whose first Mark measures from now.
func (r *Recorder) Begin(kind, trace string, id uint64, count int) Span {
	now := r.now()
	return Span{
		r:    r,
		tl:   Timeline{Trace: trace, Kind: kind, ID: id, Count: count, StartNS: now.UnixNano()},
		last: now,
	}
}

// Trace reports the span's correlation ID ("" for the zero Span).
func (s *Span) Trace() string { return s.tl.Trace }

// Total reports the stage sum accumulated so far.
func (s *Span) Total() time.Duration { return time.Duration(s.tl.TotalNS) }

// SetTimer fills in the timeline's timer identity once it is known — a
// batch's size only after decode, its first durable ID only after
// admission assigns IDs.
func (s *Span) SetTimer(id uint64, count int) {
	if s.r == nil {
		return
	}
	s.tl.ID = id
	s.tl.Count = count
}

// Mark closes the current stage at the recorder's clock, naming it.
func (s *Span) Mark(name string) {
	if s.r == nil {
		return
	}
	now := s.r.now()
	s.tl.Add(name, now.Sub(s.last).Nanoseconds())
	s.last = now
}

// Finish seals the span and records its timeline; it reports the
// assigned sequence number (0 for the zero Span).
func (s *Span) Finish() uint64 {
	if s.r == nil {
		return 0
	}
	return s.r.Record(s.tl)
}

// Record admits a fully-built timeline: assigns its Seq, feeds every
// stage into the "<kind>_<stage>" histogram and the total into
// "<kind>_total", and stores it in the recent ring (and the slow ring
// when at or over threshold). It reports the assigned Seq (never 0).
func (r *Recorder) Record(tl Timeline) uint64 {
	for i := 0; i < tl.NStages; i++ {
		r.hist(tl.Kind, tl.Stages[i].Name).Record(tl.Stages[i].NS)
	}
	r.hist(tl.Kind, "total").Record(tl.TotalNS)

	r.mu.Lock()
	r.seq++
	tl.Seq = r.seq
	r.recent[tl.Seq%uint64(len(r.recent))] = tl
	if tl.TotalNS >= r.slowNS {
		r.nSlow++
		r.slow[r.nSlow%uint64(len(r.slow))] = tl
	}
	r.mu.Unlock()
	return tl.Seq
}

// Amend appends a late stage to an already-recorded timeline — the
// long-poll push leg, observed only when a client collects the fire.
// The stage duration is fed into its histogram regardless; the stored
// exemplars are updated only if seq is still resident in a ring (it
// may have been overwritten). It reports whether an exemplar was found.
func (r *Recorder) Amend(seq uint64, name string, ns int64) bool {
	if seq == 0 {
		return false
	}
	if ns < 0 {
		ns = 0
	}
	var kind string
	found := false
	r.mu.Lock()
	if tl := &r.recent[seq%uint64(len(r.recent))]; tl.Seq == seq {
		kind = tl.Kind
		tl.Add(name, ns)
		found = true
	}
	if tl := r.slowLocked(seq); tl != nil {
		kind = tl.Kind
		tl.Add(name, ns)
		found = true
	}
	r.mu.Unlock()
	if kind == "" {
		kind = "fire" // ring-evicted; the stage distribution still counts
	}
	r.hist(kind, name).Record(ns)
	return found
}

// slowLocked finds seq's exemplar in the slow ring, or nil. The ring
// holds writes (nSlow-len, nSlow], and seqs rise with the write count,
// so a binary search over the writes finds the slot. Caller holds r.mu.
func (r *Recorder) slowLocked(seq uint64) *Timeline {
	capacity := uint64(len(r.slow))
	lo := uint64(1) // oldest resident write
	if r.nSlow > capacity {
		lo = r.nSlow - capacity + 1
	}
	hi := r.nSlow + 1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if r.slow[mid%capacity].Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > r.nSlow {
		return nil
	}
	if tl := &r.slow[lo%capacity]; tl.Seq == seq {
		return tl
	}
	return nil
}

// snapshot copies both rings oldest-first, recent then slow (entries can
// appear in both; consumers dedupe by Seq).
func (r *Recorder) snapshot() []Timeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Timeline, 0, len(r.recent)+len(r.slow))
	out = appendRing(out, r.recent, r.seq)
	out = appendRing(out, r.slow, r.nSlow)
	return out
}

// appendRing copies a seq-indexed ring oldest-first: n is the count of
// entries ever written, ring[k%len] holds write k.
func appendRing(out, ring []Timeline, n uint64) []Timeline {
	capacity := uint64(len(ring))
	start := uint64(1)
	if n > capacity {
		start = n - capacity + 1
	}
	for k := start; k <= n; k++ {
		tl := ring[k%capacity]
		if tl.Seq != 0 {
			out = append(out, tl)
		}
	}
	return out
}

// Dump writes both exemplar rings as JSON Lines, one timeline per line:
// the recent ring oldest-first, then the slow ring oldest-first.
// Duplicate Seqs across the two sections are possible by design.
func (r *Recorder) Dump(w io.Writer) error {
	var buf []byte
	for _, tl := range r.snapshot() {
		buf = tl.AppendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
