package timer

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrTraceDisabled reports a trace operation on a runtime built without
// WithTrace.
var ErrTraceDisabled = errors.New("timer: flight recorder not enabled (WithTrace)")

// TraceKind classifies one lifecycle event in the flight recorder.
type TraceKind uint8

// Flight-recorder event kinds.
const (
	// TraceScheduled records a timer entering the facility (AfterFunc,
	// Schedule, After, Every's re-arms, and Reset).
	TraceScheduled TraceKind = iota
	// TraceFired records an expiry handed to delivery; Lag is how many
	// ticks past its deadline the timer fired.
	TraceFired
	// TraceStopped records a successful cancellation.
	TraceStopped
	// TraceAnomaly records a clock anomaly; Lag is the magnitude in
	// ticks and ID/Deadline are zero.
	TraceAnomaly
	// TracePanic records an expiry action that panicked and was
	// contained by the recovery barrier.
	TracePanic
)

// String returns the kind's name.
func (k TraceKind) String() string {
	switch k {
	case TraceScheduled:
		return "scheduled"
	case TraceFired:
		return "fired"
	case TraceStopped:
		return "stopped"
	case TraceAnomaly:
		return "anomaly"
	case TracePanic:
		return "panic"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// TraceEvent is one flight-recorder entry: enough causality to explain
// a late fire after the fact — which timer (ID), when in virtual time it
// happened, and how far past its deadline it was — without carrying the
// callback or any pointer that would pin recycled objects.
type TraceEvent struct {
	// Seq is the event's global sequence number on its runtime: gaps
	// in a dump mean the ring wrapped and older events were overwritten.
	Seq uint64
	// Kind is the lifecycle transition.
	Kind TraceKind
	// ID is the facility's never-reused timer identity, correlating
	// every event of one timer's life (meaningless for anomaly events,
	// which concern the clock, not a timer).
	ID ID
	// Tick is the facility's virtual time when the event was recorded.
	Tick Tick
	// Deadline is the timer's expiry tick at the time of the event.
	Deadline Tick
	// Lag is ticks past deadline for fired events, the magnitude
	// for anomaly events, and zero otherwise.
	Lag int64
	// WallNS is the wall-clock Unix nanosecond of the runtime's most
	// recent advance when the event was recorded — an atomic mirror
	// maintained by the driver, not a fresh clock read, so stamping
	// costs one load and the zero-alloc hot path stays flat. Ticks
	// order events within one runtime; WallNS lines them up against
	// stage timelines from the daemon and against dumps from other
	// processes, to the driver's polling cadence (a fake clock yields
	// its virtual wall time, keeping simulated traces self-consistent).
	WallNS int64
}

// appendJSON renders the event as one JSON object (no trailing newline).
func (ev TraceEvent) appendJSON(b []byte) []byte {
	return fmt.Appendf(b,
		`{"seq":%d,"kind":%q,"id":%d,"tick":%d,"deadline":%d,"lag":%d,"wall_ns":%d}`,
		ev.Seq, ev.Kind.String(), uint64(ev.ID),
		int64(ev.Tick), int64(ev.Deadline), ev.Lag, ev.WallNS)
}

// traceRing is the flight recorder: a fixed-capacity ring of the most
// recent lifecycle events. Recording is a mutex acquire plus one struct
// store into the preallocated buffer — no allocation, so the zero-alloc
// hot path holds with tracing enabled. The mutex (rather than a clever
// lock-free ring) keeps records from the driver goroutine
// and Stop/Reset callers race-free and totally ordered by Seq.
type traceRing struct {
	mu   sync.Mutex
	buf  []TraceEvent
	seq  uint64
	sink io.Writer // auto-dump target on anomaly/panic; may be nil
}

func newTraceRing(capacity int, sink io.Writer) *traceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &traceRing{buf: make([]TraceEvent, capacity), sink: sink}
}

// record stamps the next sequence number and stores the event,
// overwriting the oldest when the ring is full.
func (r *traceRing) record(ev TraceEvent) {
	r.mu.Lock()
	ev.Seq = r.seq
	r.buf[r.seq%uint64(len(r.buf))] = ev
	r.seq++
	r.mu.Unlock()
}

// eventsLocked copies the ring oldest-to-newest; caller holds r.mu.
func (r *traceRing) eventsLocked() []TraceEvent {
	n := r.seq
	capacity := uint64(len(r.buf))
	start := uint64(0)
	count := n
	if n > capacity {
		start = n - capacity
		count = capacity
	}
	out := make([]TraceEvent, 0, count)
	for s := start; s < n; s++ {
		out = append(out, r.buf[s%capacity])
	}
	return out
}

func (r *traceRing) events() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked()
}

// dump writes the ring as JSONL, oldest first.
func (r *traceRing) dump(w io.Writer) error {
	events := r.events()
	var buf []byte
	for _, ev := range events {
		buf = ev.appendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// autoDump writes the ring to the configured sink, swallowing write
// errors and panics: the recorder must never make an anomaly worse.
func (r *traceRing) autoDump() {
	r.mu.Lock()
	sink := r.sink
	r.mu.Unlock()
	if sink == nil {
		return
	}
	safeHook(func() { _ = r.dump(sink) })
}

// WithTrace arms the flight recorder: the runtime keeps the last n
// lifecycle events (scheduled, fired, stopped, anomaly, panic) in a
// fixed ring buffer, readable with TraceEvents and dumpable as JSONL
// with DumpTrace. Recording allocates nothing, so the zero-alloc
// scheduling path is preserved; the cost is one short mutex-guarded
// store per lifecycle transition. n is clamped to >= 1.
func WithTrace(n int) RuntimeOption {
	return func(c *runtimeConfig) { c.traceCap = n }
}

// WithTraceSink sets a writer that receives an automatic JSONL dump of
// the flight recorder whenever the runtime observes a clock anomaly or
// contains a callback panic — the moments a post-hoc trace is worth
// having. Requires WithTrace. The sink is called from the goroutine
// that observed the event (the driver, or the Drain caller) and must not call
// back into the runtime; write errors and panics are swallowed.
func WithTraceSink(w io.Writer) RuntimeOption {
	return func(c *runtimeConfig) { c.traceSink = w }
}

// traceRecord appends one event when tracing is enabled. The nil check
// is the only cost on untraced runtimes; traced runtimes additionally
// sample the wall clock (one time.Now-equivalent read, no allocation)
// so dumps can be correlated across processes.
func (rt *Runtime) traceRecord(kind TraceKind, id ID, tick, deadline Tick, lag int64) {
	if rt.trace == nil {
		return
	}
	rt.trace.record(TraceEvent{Kind: kind, ID: id, Tick: tick,
		Deadline: deadline, Lag: lag, WallNS: rt.lastWall.Load()})
}

// TraceEvents returns the flight recorder's contents, oldest first
// (nil when WithTrace is not configured). Safe to call concurrently
// with scheduling and delivery.
func (rt *Runtime) TraceEvents() []TraceEvent {
	if rt.trace == nil {
		return nil
	}
	return rt.trace.events()
}

// DumpTrace writes the flight recorder as JSON Lines — one event
// object per line, oldest first — for offline correlation (a late fire
// traced back through its schedule and reset history by ID). It
// reports ErrTraceDisabled when WithTrace is not configured.
func (rt *Runtime) DumpTrace(w io.Writer) error {
	if rt.trace == nil {
		return ErrTraceDisabled
	}
	return rt.trace.dump(w)
}

// DumpTrace concatenates every shard's flight recorder as JSONL. Shards
// trace independently; lines from different shards interleave by shard
// order, each shard's own events staying oldest-first.
func (s *Sharded) DumpTrace(w io.Writer) error {
	for i := range s.shards {
		if err := s.shards[i].rt.DumpTrace(w); err != nil {
			return err
		}
	}
	return nil
}
