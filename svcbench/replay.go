package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"timingwheels/internal/lease"
	"timingwheels/internal/stagetrace"
	"timingwheels/internal/wal"
	"timingwheels/timer"
	"timingwheels/twclient"
)

// The replay times each layer's public API in-process, on the same
// seeded inputs the daemon received: the resident population, then the
// window's operation stream. Where a workload's stream has no operation
// of a kind (no stops on fire-storm, no resets on admit), that kind is
// timed on replaySample resident timers picked by the seed instead.
const (
	replaySample   = 10_000
	replayWALReqs  = 3000 // write requests replayed through the WAL
	replayRecords  = 200_000
	twdGranularity = 10 * time.Millisecond // twd's default -granularity
	twdSlots       = 4096                  // twd's Scheme 6 wheel size
)

// replayResult is nanoseconds per call (or per record, per request) for
// each layer.
type replayResult struct {
	schemeStart, schemeStop, schemeTick  float64
	timerSchedule, timerStop, timerReset float64
	walAppend, walCommit                 float64
	leaseAttach, leaseDetach             float64
	stageRecord                          float64
	jsonDecode, jsonEncode               float64
}

func (rr *replayResult) metrics() []metric {
	return []metric{
		{name: "scheme.start_ns", unit: "ns", value: rr.schemeStart},
		{name: "scheme.stop_ns", unit: "ns", value: rr.schemeStop},
		{name: "scheme.tick_ns", unit: "ns", value: rr.schemeTick},
		{name: "timer.schedule_ns", unit: "ns", value: rr.timerSchedule},
		{name: "timer.stop_ns", unit: "ns", value: rr.timerStop},
		{name: "timer.reset_ns", unit: "ns", value: rr.timerReset},
		{name: "wal.append_ns", unit: "ns", value: rr.walAppend},
		{name: "wal.commit_ns", unit: "ns", value: rr.walCommit},
		{name: "lease.attach_ns", unit: "ns", value: rr.leaseAttach},
		{name: "lease.detach_ns", unit: "ns", value: rr.leaseDetach},
		{name: "stagetrace.record_ns", unit: "ns", value: rr.stageRecord},
		{name: "json.decode_ns", unit: "ns", value: rr.jsonDecode},
		{name: "json.encode_ns", unit: "ns", value: rr.jsonEncode},
	}
}

// stopwatch accumulates timed calls.
type stopwatch struct {
	total time.Duration
	n     int
}

func (s *stopwatch) time(n int, f func()) {
	t := time.Now()
	f()
	s.total += time.Since(t)
	s.n += n
}

func (s *stopwatch) ns() float64 { return ratio(float64(s.total.Nanoseconds()), float64(s.n)) }

func replay(in *inputs, seed int64, walDir string) (*replayResult, error) {
	rr := &replayResult{}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	sample := make([]int, min(replaySample, len(in.resident)))
	for i := range sample {
		sample[i] = rng.Intn(len(in.resident))
	}
	replayScheme(in, sample, rr)
	if err := replayTimer(in, sample, rr); err != nil {
		return nil, err
	}
	if err := replayWAL(in, walDir, rr); err != nil {
		return nil, err
	}
	replayStages(rr)
	if err := replayJSON(in, rr); err != nil {
		return nil, err
	}
	return rr, nil
}

// ticksOf converts a duration to whole ticks, at least one.
func ticksOf(d time.Duration) timer.Tick {
	return timer.Tick(max(1, int64((d+twdGranularity-1)/twdGranularity)))
}

// opAfter is the relative deadline a window op's timers are armed with.
func opAfter(o *op) time.Duration {
	if o.deadlineOff > 0 {
		return max(o.deadlineOff-o.at, time.Millisecond)
	}
	return time.Duration(o.afterMS) * time.Millisecond
}

// replayScheme drives a Scheme 6 wheel in virtual time: the resident
// population, then the window stream with the wheel ticked through the
// window at twd's granularity.
func replayScheme(in *inputs, sample []int, rr *replayResult) {
	fac := timer.NewHashedWheel(twdSlots)
	cb := func(timer.ID) {}
	var start, stop, tick stopwatch
	resident := make([]timer.Handle, len(in.resident))
	start.time(len(in.resident), func() {
		for i, d := range in.resident {
			resident[i], _ = fac.StartTimer(ticksOf(d), cb)
		}
	})
	slots := map[int]timer.Handle{}
	var now time.Duration
	stops := 0
	for i := range in.window {
		o := &in.window[i]
		for ; now+twdGranularity <= o.at; now += twdGranularity {
			tick.time(1, func() { fac.Tick() })
		}
		switch o.kind {
		case opSchedule, opBatch:
			n := max(o.n, 1)
			start.time(n, func() {
				for k := 0; k < n; k++ {
					slots[o.slot+k], _ = fac.StartTimer(ticksOf(opAfter(o)), cb)
				}
			})
		case opStop:
			if h, ok := slots[o.slot]; ok {
				stop.time(1, func() { _ = fac.StopTimer(h) })
				stops++
			}
		case opReset:
			// Scheme 6 has no update in place: a reset is stop + start.
			for _, it := range o.resets {
				i := int(it.id - 1)
				if resident[i] != nil {
					_ = fac.StopTimer(resident[i])
				}
				resident[i], _ = fac.StartTimer(ticksOf(time.Duration(it.afterMS)*time.Millisecond), cb)
			}
		}
	}
	if stops == 0 {
		for _, i := range sample {
			if h := resident[i]; h != nil {
				stop.time(1, func() { _ = fac.StopTimer(h) })
				resident[i] = nil
			}
		}
	}
	rr.schemeStart, rr.schemeStop, rr.schemeTick = start.ns(), stop.ns(), tick.ns()
}

// nopJournal stands in for twd's journal, which the timer layer calls
// on every transition of a tagged timer.
type nopJournal struct{}

func (nopJournal) TimerArmed(uint64, timer.ID, timer.Tick) {}
func (nopJournal) TimerStopped(uint64, timer.ID)           {}
func (nopJournal) TimerFired(uint64, timer.ID, int64)      {}
func (nopJournal) TimerShed(uint64, timer.ID)              {}

// replayTimer drives timer.Sharded configured as twd configures it, with
// the lease table on top, calling each API the way twd's handlers do.
func replayTimer(in *inputs, sample []int, rr *replayResult) error {
	fac := timer.NewSharded(1,
		timer.WithGranularity(twdGranularity),
		timer.WithIngress(0),
		timer.WithJournal(nopJournal{}),
		timer.WithTrace(4096),
	)
	defer fac.Close()
	noop := func() {}
	resident := make([]*timer.Timer, len(in.resident))
	var sched, stop, reset, attach, detach stopwatch
	for at := 0; at < len(in.resident); at += 512 {
		chunk := in.resident[at:min(at+512, len(in.resident))]
		reqs := make([]timer.Req, len(chunk))
		for i, d := range chunk {
			reqs[i] = timer.Req{After: d, Fn: noop, Opt: timer.WithTag(uint64(at + i + 1))}
		}
		var ts []*timer.Timer
		var err error
		sched.time(len(reqs), func() { ts, err = fac.ScheduleBatch(reqs) })
		if err != nil {
			return fmt.Errorf("timer replay: schedule resident: %w", err)
		}
		copy(resident[at:], ts)
	}

	leases := lease.NewTable(fac, lease.Config{})
	defer leases.Close()
	lids := make([]uint64, 4)
	for i := range lids {
		id, _, err := leases.Grant(time.Hour)
		if err != nil {
			return fmt.Errorf("lease replay: %w", err)
		}
		lids[i] = id
	}

	type armed struct {
		t     *timer.Timer
		tag   uint64
		lease int
	}
	slots := map[int]armed{}
	tag := uint64(len(in.resident))
	stops, resets, leased := 0, 0, 0
	for i := range in.window {
		o := &in.window[i]
		switch o.kind {
		case opSchedule, opBatch:
			n := max(o.n, 1)
			reqs := make([]timer.Req, n)
			for k := range reqs {
				reqs[k] = timer.Req{After: opAfter(o), Fn: noop, Opt: timer.WithTag(tag + uint64(k) + 1)}
			}
			var ts []*timer.Timer
			var err error
			sched.time(n, func() { ts, err = fac.ScheduleBatch(reqs) })
			if err != nil {
				return fmt.Errorf("timer replay: schedule: %w", err)
			}
			for k, t := range ts {
				tag++
				slots[o.slot+k] = armed{t: t, tag: tag, lease: o.lease}
				if o.lease >= 0 {
					lid, id := lids[o.lease], tag
					attach.time(1, func() { leases.Attach(lid, id) })
					leased++
				}
			}
		case opStop:
			if a, ok := slots[o.slot]; ok {
				stop.time(1, func() { a.t.Stop() })
				stops++
				delete(slots, o.slot)
				if a.lease >= 0 {
					detach.time(1, func() { leases.Detach(lids[a.lease], a.tag) })
				}
			}
		case opReset:
			rq := make([]timer.ResetReq, 0, len(o.resets))
			for _, it := range o.resets {
				rq = append(rq, timer.ResetReq{T: resident[it.id-1], After: time.Duration(it.afterMS) * time.Millisecond})
			}
			reset.time(len(rq), func() { _, _ = fac.ResetBatch(rq) })
			resets++
		}
	}
	// Kinds the stream lacks are timed on the seeded resident sample.
	if resets == 0 {
		for _, i := range sample {
			t := resident[i]
			reset.time(1, func() { _, _ = fac.ResetBatch([]timer.ResetReq{{T: t, After: time.Hour}}) })
		}
	}
	if leased == 0 {
		for k, i := range sample {
			lid := lids[k%len(lids)]
			attach.time(1, func() { leases.Attach(lid, uint64(i+1)) })
		}
	}
	if stops == 0 {
		for k, i := range sample {
			t := resident[i]
			if t == nil {
				continue
			}
			stop.time(1, func() { t.Stop() })
			resident[i] = nil
			lid := lids[k%len(lids)]
			detach.time(1, func() { leases.Detach(lid, uint64(i+1)) })
		}
	}
	rr.timerSchedule, rr.timerStop, rr.timerReset = sched.ns(), stop.ns(), reset.ns()
	rr.leaseAttach, rr.leaseDetach = attach.ns(), detach.ns()
	return nil
}

// walRecords is what twd appends for one request: one record per timer
// the request touches.
func walRecords(o *op, nextID *uint64) []wal.Record {
	var recs []wal.Record
	switch o.kind {
	case opSchedule, opBatch:
		for k := 0; k < max(o.n, 1); k++ {
			*nextID++
			recs = append(recs, wal.Record{Op: wal.OpSchedule, ID: *nextID, Deadline: int64(opAfter(o))})
		}
	case opStop:
		recs = append(recs, wal.Record{Op: wal.OpCancel, ID: uint64(o.slot + 1)})
	case opReset:
		for _, it := range o.resets {
			recs = append(recs, wal.Record{Op: wal.OpReset, ID: it.id, Deadline: it.afterMS})
		}
	case opRenew:
		recs = append(recs, wal.Record{Op: wal.OpLeaseRenew, ID: uint64(o.lease + 1)})
	}
	return recs
}

// replayWAL appends and commits the window's first requests through a
// log with twd's default sync policy, in the directory the daemon's own
// WAL used.
func replayWAL(in *inputs, dir string, rr *replayResult) error {
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{SyncEvery: 64, SyncInterval: 5 * time.Millisecond})
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	var app, commit stopwatch
	var nextID uint64
	for i := 0; i < min(replayWALReqs, len(in.window)); i++ {
		recs := walRecords(&in.window[i], &nextID)
		var lsn wal.LSN
		for _, rec := range recs {
			app.time(1, func() { lsn, err = log.Append(rec) })
			if err != nil {
				log.Close()
				return fmt.Errorf("wal replay: append: %w", err)
			}
		}
		commit.time(1, func() { err = log.Commit(lsn) })
		if err != nil {
			log.Close()
			return fmt.Errorf("wal replay: commit: %w", err)
		}
	}
	rr.walAppend, rr.walCommit = app.ns(), commit.ns()
	return log.Close()
}

// replayStages records admission and fire timelines, shaped as twd
// shapes them, into a recorder sized as twd sizes it.
func replayStages(rr *replayResult) {
	rec := stagetrace.NewRecorder(stagetrace.Config{Recent: 1024, Slow: 256, SlowThreshold: 25 * time.Millisecond})
	admit := stagetrace.Timeline{Kind: "admit", Count: 1}
	for _, st := range []string{"decode", "append", "commit", "arm", "publish"} {
		admit.Add(st, 20_000)
	}
	fire := stagetrace.Timeline{Kind: "fire", Count: 1}
	fire.Add("fire", 5_000_000)
	fire.Add("enqueue", 2_000)
	var sw stopwatch
	sw.time(replayRecords, func() {
		for i := 0; i < replayRecords/2; i++ {
			admit.ID = uint64(i)
			rec.Record(admit)
			fire.ID = uint64(i)
			rec.Record(fire)
		}
	})
	rr.stageRecord = sw.ns()
}

// replayJSON decodes each window request's body into the wire types and
// encodes its reply, as the daemon's handlers do.
func replayJSON(in *inputs, rr *replayResult) error {
	var dec, enc stopwatch
	for i := range in.window {
		o := &in.window[i]
		var body, reply any
		var into func() any
		switch o.kind {
		case opSchedule:
			body = twclient.ScheduleReq{AfterMS: o.afterMS, Lease: uint64(o.lease + 1)}
			reply = twclient.ScheduleAck{ID: uint64(o.slot + 1), DeadlineNS: time.Now().UnixNano()}
			into = func() any { return &twclient.ScheduleReq{} }
		case opBatch:
			items := make([]twclient.ScheduleReq, o.n)
			acks := make([]twclient.ScheduleAck, o.n)
			for k := range items {
				items[k].DeadlineNS = time.Now().Add(opAfter(o)).UnixNano()
				acks[k] = twclient.ScheduleAck{ID: uint64(o.slot + k + 1), DeadlineNS: items[k].DeadlineNS}
			}
			body = map[string]any{"timers": items}
			reply = map[string]any{"timers": acks}
			into = func() any { return &struct{ Timers []twclient.ScheduleReq }{} }
		case opStop:
			body = map[string]uint64{"id": uint64(o.slot + 1)}
			reply = map[string]any{"stopped": true}
			into = func() any { return &struct{ ID uint64 }{} }
		case opReset:
			type one struct {
				ID      uint64 `json:"id"`
				AfterMS int64  `json:"after_ms"`
			}
			rs := make([]one, len(o.resets))
			for k, it := range o.resets {
				rs[k] = one{it.id, it.afterMS}
			}
			body = map[string]any{"resets": rs}
			reply = map[string]any{"matched": len(rs), "accepted": len(rs)}
			into = func() any {
				return &struct {
					Resets []one `json:"resets"`
				}{}
			}
		default:
			continue
		}
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		v := into()
		dec.time(1, func() { err = json.Unmarshal(b, v) })
		if err != nil {
			return fmt.Errorf("json replay: %w", err)
		}
		enc.time(1, func() { _, err = json.Marshal(reply) })
		if err != nil {
			return fmt.Errorf("json replay: %w", err)
		}
	}
	rr.jsonDecode, rr.jsonEncode = dec.ns(), enc.ns()
	return nil
}
