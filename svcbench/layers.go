package main

import (
	"fmt"
	"os"
	"time"
)

// perLayer computes the traced run's layer metrics from the scrapes
// (twd's own counters and stage histograms; s0 and s1 bound the window,
// s2 ends the closed loop) and the client's spans. snapStall and peak are
// the closed loop's compaction stall and rate. The replay's metrics are
// appended by the caller.
func perLayer(r *runner, s0, s1, s2 *scrape, genCPU, snapStall time.Duration, peak float64) []metric {
	w := window{s0, s1}
	secs := w.seconds()

	var admitWire []float64
	ops := 0
	for i := range r.spans {
		s := &r.spans[i]
		if !s.Window {
			continue
		}
		ops += s.Ops
		if s.OK && (s.Kind == opSchedule.String() || s.Kind == opBatch.String()) {
			admitWire = append(admitWire, float64(s.AckNS-s.SendNS)/1e3)
		}
	}
	fops := float64(ops)

	admit := w.hist("twd_admit_seconds")
	var wire float64
	if len(admitWire) > 0 {
		wire = quantile(admitWire, 0.5) - admit.quantile(0.5)*1e6
	}
	perReq := func(stage string) float64 { return w.hist("twd_stage_"+stage+"_seconds").mean() * 1e6 }

	// With a 20 s window no workload's window fills a segment; the
	// closed loops of fire-storm and resident-reset do, at a fixed
	// request.
	snapshots := float64(s2.health.WAL.Snapshots - s0.health.WAL.Snapshots)
	bytesPerOp := ratio(float64(s1.health.WAL.SegmentBytes-s0.health.WAL.SegmentBytes), fops)

	r.mu.Lock()
	eventsPerPoll := ratio(float64(r.pollEvents), float64(r.polls))
	r.mu.Unlock()

	acks, _ := r.windowAcks()
	ackSec, _ := intervalQuantiles(acks, 0.50)
	lags := values(r.windowFireLags())
	late, lateN := r.genLateP99()
	ticks := w.hist("tick_batch_size")
	firingLag := w.hist("firing_lag_seconds")
	return []metric{
		{name: "client.gen_late_p99_ms", unit: "ms", value: late, samples: lateN},
		{name: "client.cpu_us_per_op", unit: "us", value: ratio(genCPU.Seconds()*1e6, fops), samples: ops},
		{name: "client.wire_us_p50", unit: "us", value: wire, samples: len(admitWire)},
		{name: "client.ack_p50_ms", unit: "ms", value: median(ackSec), samples: len(acks)},
		{name: "client.ack_p90_ms", unit: "ms", value: quantile(values(acks), 0.90), samples: len(acks)},
		{name: "client.ack_p99_window_ms", unit: "ms", value: quantile(values(acks), 0.99), samples: len(acks)},
		{name: "client.closed_loop_ops_per_s", unit: "ops/s", value: peak},
		{name: "daemon.cpu_us_per_op_window", unit: "us", value: ratio((s1.cpu-s0.cpu).Seconds()*1e6, fops), samples: ops},
		{name: "fire.lag_p50_ms", unit: "ms", value: quantile(lags, 0.50), samples: len(lags)},
		{name: "fire.lag_p99_window_ms", unit: "ms", value: quantile(lags, 0.99), samples: len(lags)},
		{name: "http.decode_us_per_req", unit: "us", value: perReq("decode")},
		{name: "http.publish_us_per_req", unit: "us", value: perReq("publish")},
		{name: "http.admit_us_p99", unit: "us", value: admit.quantile(0.99) * 1e6, samples: int(admit.count)},
		{name: "wal.append_us_per_req", unit: "us", value: perReq("append")},
		{name: "wal.commit_us_per_req", unit: "us", value: perReq("commit")},
		{name: "wal.appends_per_op", unit: "count", value: ratio(w.counter("wal_appends_total"), fops)},
		{name: "wal.syncs_per_op", unit: "count", value: ratio(w.counter("wal_syncs_total"), fops)},
		{name: "wal.bytes_per_op", unit: "B", value: bytesPerOp},
		{name: "wal.snapshots", unit: "count", value: snapshots},
		{name: "wal.snapshot_stall_ms", unit: "ms", value: snapStall.Seconds() * 1e3},
		{name: "timer.arm_us_per_req", unit: "us", value: perReq("arm")},
		{name: "timer.tick_fires_p99", unit: "count", value: ticks.quantile(0.99), samples: int(ticks.count)},
		{name: "timer.firing_lag_p99_ms", unit: "ms", value: firingLag.quantile(0.99) * 1e3, samples: int(firingLag.count)},
		{name: "timer.ticks_per_s", unit: "1/s", value: ticks.count / secs},
		{name: "scheme.max_slot_depth", unit: "count", value: w.gauge("wheel_max_slot_depth")},
		{name: "scheme.occupied_slots", unit: "count", value: w.gauge("wheel_occupied_slots")},
		{name: "fire.wheel_ms_p99", unit: "ms", value: w.hist("twd_stage_fire_seconds").quantile(0.99) * 1e3},
		{name: "fire.enqueue_us_per_fire", unit: "us", value: w.hist("twd_stage_enqueue_seconds").mean() * 1e6},
		{name: "fire.push_ms_p99", unit: "ms", value: w.hist("twd_stage_push_seconds").quantile(0.99) * 1e3},
		{name: "fire.events_per_poll", unit: "count", value: eventsPerPoll},
		{name: "fire.early_fraction", unit: "ratio", value: ratio(float64(r.early), float64(r.judged)), samples: r.judged},
		{name: "lease.renews_per_s", unit: "1/s", value: w.counter("leases_renewed_total") / secs},
		{name: "heap.bytes_per_timer", unit: "B", value: ratio(float64(s1.mem.HeapAlloc), float64(s1.health.Outstanding))},
		{name: "gc.cycles_per_s", unit: "1/s", value: float64(s1.mem.NumGC-s0.mem.NumGC) / secs},
		{name: "gc.cpu_fraction", unit: "ratio", value: s1.mem.GCCPUFraction},
	}
}

// printLayerTable prints each layer's marginal cost per write request of
// the workload: what the daemon measured of each admission stage beside
// what the replay measured of the layer's API alone.
func printLayerTable(name string, ms []metric) {
	v := map[string]float64{}
	for _, m := range ms {
		v[m.name] = m.value
	}
	fmt.Fprintf(os.Stderr, "svcbench: layer costs on %s (us; M = twd /metrics over the window, R = in-process replay)\n", name)
	row := func(layer, source string, us float64, note string) {
		fmt.Fprintf(os.Stderr, "  %-26s %-3s %10.3f  %s\n", layer, source, us, note)
	}
	row("client + wire", "C-M", v["client.wire_us_p50"], "send→ack p50 minus twd admit p50")
	row("http decode+validate", "M", v["http.decode_us_per_req"], "per admission request")
	row("  encoding/json decode", "R", v["json.decode_ns"]/1e3, "per write request")
	row("wal append", "M", v["wal.append_us_per_req"], "per admission request")
	row("  wal.Append", "R", v["wal.append_ns"]/1e3, "per record")
	row("wal commit", "M", v["wal.commit_us_per_req"], "per admission request (group-commit wait)")
	row("  wal.Commit", "R", v["wal.commit_ns"]/1e3, "per request")
	row("timer arm", "M", v["timer.arm_us_per_req"], "per admission request")
	row("  Sharded schedule", "R", v["timer.schedule_ns"]/1e3, "per timer")
	row("  Scheme 6 start", "R", v["scheme.start_ns"]/1e3, "per timer")
	row("publish", "M", v["http.publish_us_per_req"], "per admission request")
	row("  lease attach", "R", v["lease.attach_ns"]/1e3, "per timer")
	row("  stagetrace record", "R", v["stagetrace.record_ns"]/1e3, "per timeline")
	row("fire enqueue", "M", v["fire.enqueue_us_per_fire"], "per fired timer")
	row("Sharded stop / reset", "R", v["timer.stop_ns"]/1e3, fmt.Sprintf("reset %.3f us", v["timer.reset_ns"]/1e3))
	row("Scheme 6 stop / tick", "R", v["scheme.stop_ns"]/1e3, fmt.Sprintf("tick %.3f us", v["scheme.tick_ns"]/1e3))
}
