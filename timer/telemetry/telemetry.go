// Package telemetry exports a timer facility's observability snapshot
// through the two channels a stdlib-only Go service already has:
// Prometheus text exposition (an http.Handler serving the 0.0.4 text
// format) and expvar (a JSON snapshot under /debug/vars). It depends on
// nothing outside the standard library; the histograms arrive as
// pre-bucketed hdr snapshots from timer.Snapshot, so writing an
// exposition is pure formatting.
package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"timingwheels/internal/hdr"
	"timingwheels/timer"
)

// Source yields the snapshot to export. *timer.Runtime and
// *timer.Sharded both satisfy it.
type Source interface {
	Snapshot() timer.Snapshot
}

// Handler returns an http.Handler serving src's snapshot in Prometheus
// text exposition format (version 0.0.4) — mount it on /metrics:
//
//	http.Handle("/metrics", telemetry.Handler(rt))
//
// Every request takes a fresh snapshot; the scrape cost is proportional
// to the histogram bucket count, independent of timer load.
func Handler(src Source) http.Handler {
	return HandlerWith(src)
}

// Metric is one externally-owned sample appended after the snapshot's
// own series — the hook a service embedding the runtime uses to export
// adjacent subsystem counters (cmd/twd's WAL appends and lease
// expirations) on the same endpoint with the same name prefix. Value is
// called once per scrape.
type Metric struct {
	// Name is the metric name without the timingwheels_ prefix.
	Name string
	// Help is the HELP text.
	Help string
	// Gauge exports the sample as a gauge; false means counter.
	Gauge bool
	// Value yields the current sample. Ignored when Hist is set.
	Value func() float64
	// Hist, when non-nil, exports the metric as a full Prometheus
	// histogram (cumulative le buckets, _sum, _count) from an hdr
	// snapshot taken once per scrape — the hook cmd/twd uses to put its
	// per-stage latency decompositions on the same endpoint as the
	// facility's own histograms.
	Hist func() hdr.Snapshot
	// Scale converts Hist's recorded integer unit into the exported
	// unit (1e-9 for nanoseconds -> seconds); 0 means 1 (no scaling).
	Scale float64
}

// HandlerWith is Handler plus externally-owned metrics appended to
// every scrape.
func HandlerWith(src Source, extra ...Metric) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = writeProm(w, src.Snapshot(), extra)
	})
}

// WriteProm writes one snapshot in Prometheus text exposition format.
// Metric names are prefixed timingwheels_; durations are exported in
// seconds (converted from the snapshot's nanosecond histograms), per
// Prometheus convention.
func WriteProm(w io.Writer, s timer.Snapshot) error {
	return writeProm(w, s, nil)
}

// WritePromWith is WriteProm plus externally-owned metrics — what
// HandlerWith serves, exposed for fixtures and offline rendering.
func WritePromWith(w io.Writer, s timer.Snapshot, extra ...Metric) error {
	return writeProm(w, s, extra)
}

func writeProm(w io.Writer, s timer.Snapshot, extra []Metric) error {
	b := make([]byte, 0, 4096)

	gauge := func(name, help string, v float64) {
		b = append(b, "# HELP timingwheels_"...)
		b = append(b, name...)
		b = append(b, ' ')
		b = append(b, help...)
		b = append(b, "\n# TYPE timingwheels_"...)
		b = append(b, name...)
		b = append(b, " gauge\ntimingwheels_"...)
		b = append(b, name...)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
	}
	counterHeader := func(name, help string) {
		b = append(b, "# HELP timingwheels_"...)
		b = append(b, name...)
		b = append(b, ' ')
		b = append(b, help...)
		b = append(b, "\n# TYPE timingwheels_"...)
		b = append(b, name...)
		b = append(b, " counter\n"...)
	}
	counter := func(name, help string, v uint64) {
		counterHeader(name, help)
		b = append(b, "timingwheels_"...)
		b = append(b, name...)
		b = append(b, ' ')
		b = strconv.AppendUint(b, v, 10)
		b = append(b, '\n')
	}

	gauge("shards", "Runtimes merged into this snapshot.", float64(s.Shards))
	gauge("granularity_seconds", "Tick length.", s.Granularity.Seconds())
	gauge("now_ticks", "Facility virtual time (max across shards).", float64(s.Now))
	gauge("outstanding_timers", "Pending timers.", float64(s.Outstanding))

	counter("started_total", "Timers scheduled.", s.Started)
	counter("expired_total", "Timers that reached their deadline and were delivered.", s.Expired)
	counter("stopped_total", "Timers cancelled before expiry.", s.Stopped)
	counter("delivered_total", "Expiry actions run to completion.", s.Health.Delivered)
	counter("panics_recovered_total", "Expiry actions that panicked and were contained.", s.Health.PanicsRecovered)
	counter("slow_callbacks_total", "Expiry actions exceeding the callback budget.", s.Health.SlowCallbacks)
	counter("abandoned_on_close_total", "Timers cancelled by Close/Drain.", s.Health.AbandonedOnClose)
	counter("clock_anomalies_total", "Clock anomalies observed.", s.Health.Anomalies)
	gauge("ticks_behind", "Wall ticks still to catch up after the last poll.", float64(s.Health.TicksBehind))

	gauge("wheel_slots", "Wheel slot count (summed across shards; 0 for list/tree schemes).", float64(s.Wheel.Slots))
	gauge("wheel_occupied_slots", "Slots holding at least one timer.", float64(s.Wheel.OccupiedSlots))
	gauge("wheel_max_slot_depth", "Deepest slot's timer count.", float64(s.Wheel.MaxSlotDepth))
	counter("wheel_migrations_total", "Inter-level cascades or overflow promotions.", s.Wheel.Migrations)
	if len(s.Wheel.LevelOccupancy) > 0 {
		b = append(b, "# HELP timingwheels_wheel_level_timers Timers per hierarchy level (finest first).\n# TYPE timingwheels_wheel_level_timers gauge\n"...)
		for l, n := range s.Wheel.LevelOccupancy {
			b = fmt.Appendf(b, "timingwheels_wheel_level_timers{level=\"%d\"} %d\n", l, n)
		}
	}

	b = appendHistogram(b, "firing_lag_seconds",
		"Deadline-to-delivery lag.", s.FiringLagNS, 1e-9)
	b = appendHistogram(b, "callback_duration_seconds",
		"Expiry action run time.", s.CallbackNS, 1e-9)
	b = appendHistogram(b, "tick_batch_size",
		"Expiries delivered per poll (including empty polls).", s.TickBatch, 1)

	for _, m := range extra {
		if m.Hist != nil {
			scale := m.Scale
			if scale == 0 {
				scale = 1
			}
			b = appendHistogram(b, m.Name, m.Help, m.Hist(), scale)
			continue
		}
		if m.Value == nil {
			continue
		}
		if m.Gauge {
			gauge(m.Name, m.Help, m.Value())
		} else {
			counterHeader(m.Name, m.Help)
			b = append(b, "timingwheels_"...)
			b = append(b, m.Name...)
			b = append(b, ' ')
			b = strconv.AppendFloat(b, m.Value(), 'g', -1, 64)
			b = append(b, '\n')
		}
	}

	_, err := w.Write(b)
	return err
}

// appendHistogram emits one hdr snapshot as a Prometheus histogram:
// cumulative _bucket{le="..."} samples (only buckets that changed the
// cumulative count, plus +Inf), then _sum and _count. scale converts the
// recorded integer unit into the exported unit (1e-9 for ns -> s).
func appendHistogram(b []byte, name, help string, h timer.HistogramSnapshot, scale float64) []byte {
	b = fmt.Appendf(b, "# HELP timingwheels_%s %s\n# TYPE timingwheels_%s histogram\n",
		name, help, name)
	var cum uint64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		cum += c
		b = fmt.Appendf(b, "timingwheels_%s_bucket{le=%q} %d\n",
			name, formatLe(hdr.UpperBound(i), scale), cum)
	}
	b = fmt.Appendf(b, "timingwheels_%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	b = fmt.Appendf(b, "timingwheels_%s_sum %s\n",
		name, strconv.FormatFloat(float64(h.Sum)*scale, 'g', -1, 64))
	b = fmt.Appendf(b, "timingwheels_%s_count %d\n", name, h.Count)
	return b
}

// formatLe renders a bucket upper bound in the exported unit.
func formatLe(bound int64, scale float64) string {
	return strconv.FormatFloat(float64(bound)*scale, 'g', -1, 64)
}

// Publish registers src's snapshot as an expvar variable (JSON under
// /debug/vars). The snapshot is taken lazily on each /debug/vars read.
// expvar panics on duplicate names, as with any expvar.Publish; pick
// distinct names for distinct facilities.
func Publish(name string, src Source) {
	expvar.Publish(name, expvar.Func(func() any { return src.Snapshot() }))
}
