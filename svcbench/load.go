package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"timingwheels/twclient"
)

// writeSpan is the client's record of one write request. due is when
// the open loop meant to send it (zero in the closed loop); busy reports
// that the write connection was still occupied by the previous request
// at that instant.
type writeSpan struct {
	Kind   string `json:"kind"`
	Ops    int    `json:"ops"`
	DueNS  int64  `json:"due_ns,omitempty"`
	SendNS int64  `json:"send_ns"`
	AckNS  int64  `json:"ack_ns"`
	Busy   bool   `json:"busy,omitempty"`
	OK     bool   `json:"ok"`
	Window bool   `json:"window"`
}

// latency applies the latency start rule: from the due instant when the
// connection was busy then (that wait is the daemon's queueing),
// otherwise from the send (a late wake-up is the generator's).
func (s *writeSpan) latency() time.Duration {
	if s.Busy {
		return time.Duration(s.AckNS - s.DueNS)
	}
	return time.Duration(s.AckNS - s.SendNS)
}

// fireObs is one event received on the /v1/fired long poll.
type fireObs struct {
	Seq     uint64 `json:"seq"`
	ID      uint64 `json:"id"`
	FiredNS int64  `json:"fired_ns"`
	LagNS   int64  `json:"lag_ns"`
	RecvNS  int64  `json:"recv_ns"`
}

// slotState is one timer the generator created through the API.
type slotState struct {
	id       uint64
	deadline int64
	stopped  bool
	window   bool
}

// shortReset is a resident timer reset to expire during the run.
type shortReset struct {
	earliest int64 // send instant + after: the daemon's deadline is no earlier
	window   bool
}

// runner drives one twd through two connections: writes, sent one at a
// time in plan order, and the /v1/fired long poll.
type runner struct {
	base   string
	t0     time.Time // window start
	write  *twclient.Client
	whc    *http.Client // the write connection, for /v1/reset
	poll   *twclient.Client
	leases []uint64

	slots  []slotState
	resets map[uint64]shortReset
	spans  []writeSpan

	// cpuAt is twd's CPU time at t0 and at each whole window second.
	cpuAt []time.Duration

	attempted, failed int
	failures          map[string]int
	// early counts deliveries before the wall-clock deadline but within
	// one tick of it (see judge).
	early, judged int

	mu         sync.Mutex
	fires      []fireObs
	gaps       uint64
	polls      int
	pollEvents int
}

// oneConn is a transport limited to a single connection to the daemon.
func oneConn() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func newRunner(base string) (*runner, error) {
	whc, phc := oneConn(), oneConn()
	// One attempt per call: a retry would hide a failure from the oracle.
	write, err := twclient.New(twclient.Config{Endpoints: []string{base}, HTTP: whc, MaxAttempts: 1})
	if err != nil {
		return nil, err
	}
	poll, err := twclient.New(twclient.Config{Endpoints: []string{base}, HTTP: phc, MaxAttempts: 1})
	if err != nil {
		return nil, err
	}
	return &runner{base: base, write: write, whc: whc, poll: poll,
		resets: map[uint64]shortReset{}, failures: map[string]int{}}, nil
}

func (r *runner) fail(what string, n int) {
	r.failed += n
	r.failures[what] += n
}

func (r *runner) grantLeases(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		id, _, err := r.write.LeaseGrant(ctx, 0)
		if err != nil {
			return fmt.Errorf("grant lease: %w", err)
		}
		r.leases = append(r.leases, id)
	}
	return nil
}

func (r *runner) ensureSlots(n int) {
	if n > len(r.slots) {
		r.slots = append(r.slots, make([]slotState, n-len(r.slots))...)
	}
}

// exec sends one op and records its outcome against the oracle's books.
func (r *runner) exec(ctx context.Context, o *op, window bool, sendNS int64) bool {
	r.attempted += o.timerOps()
	var err error
	switch o.kind {
	case opSchedule:
		var ack twclient.ScheduleAck
		ack, err = r.write.Schedule(ctx, twclient.ScheduleReq{AfterMS: o.afterMS, Lease: r.leases[o.lease]})
		if err == nil {
			r.slots[o.slot] = slotState{id: ack.ID, deadline: ack.DeadlineNS, window: window}
		}
	case opStop:
		s := &r.slots[o.slot]
		if s.id == 0 {
			r.fail("stop of a timer that was never acked", 1)
			return false
		}
		var stopped bool
		if stopped, err = r.write.Stop(ctx, s.id); err == nil {
			if !stopped {
				// Every stop in the plan precedes its timer's deadline by
				// minutes: "already settled" means the timer fired early.
				r.fail("stop answered stopped:false", 1)
				return false
			}
			s.stopped = true
		}
	case opBatch:
		reqs := make([]twclient.ScheduleReq, o.n)
		for i := range reqs {
			if o.deadlineOff > 0 {
				reqs[i].DeadlineNS = r.t0.Add(o.deadlineOff).UnixNano()
			} else {
				reqs[i].AfterMS = o.afterMS
			}
		}
		var acks []twclient.ScheduleAck
		if acks, err = r.write.ScheduleBatch(ctx, reqs); err == nil {
			if len(acks) != o.n {
				r.fail("batch acked a different count", o.n)
				return false
			}
			for i, a := range acks {
				r.slots[o.slot+i] = slotState{id: a.ID, deadline: a.DeadlineNS, window: window}
			}
		}
	case opReset:
		var matched int
		if matched, err = r.reset(ctx, o.resets); err == nil {
			if matched != len(o.resets) {
				r.fail("reset matched fewer live timers", len(o.resets)-matched)
			}
			short := o.resets[0] // the generator puts the dying connection first
			r.resets[short.id] = shortReset{earliest: sendNS + short.afterMS*int64(time.Millisecond), window: window}
		}
	case opRenew:
		_, err = r.write.LeaseRenew(ctx, r.leases[o.lease], 0)
	}
	if err != nil {
		if ctx.Err() == nil {
			r.fail(o.kind.String()+" request failed", max(o.timerOps(), 1))
		}
		return false
	}
	return true
}

// reset posts /v1/reset on the write connection; twclient has no Reset.
func (r *runner) reset(ctx context.Context, items []resetItem) (int, error) {
	type one struct {
		ID      uint64 `json:"id"`
		AfterMS int64  `json:"after_ms"`
	}
	body := struct {
		Resets []one `json:"resets"`
	}{Resets: make([]one, len(items))}
	for i, it := range items {
		body.Resets[i] = one{it.id, it.afterMS}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/v1/reset", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.whc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("reset: %s", resp.Status)
	}
	var out struct {
		Matched int `json:"matched"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("reset: decode: %w", err)
	}
	return out.Matched, nil
}

// openLoop sends every op at its due instant after t0. Ops run in plan
// order on the one write connection, so an op due while the previous is
// still in flight waits for it: that wait is charged to the daemon.
func (r *runner) openLoop(ctx context.Context, ops []op) {
	prevAck := r.t0
	for i := range ops {
		o := &ops[i]
		due := r.t0.Add(o.at)
		busy := prevAck.After(due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		send := time.Now()
		ok := r.exec(ctx, o, true, send.UnixNano())
		ack := time.Now()
		prevAck = ack
		r.spans = append(r.spans, writeSpan{Kind: o.kind.String(), Ops: o.timerOps(), DueNS: due.UnixNano(),
			SendNS: send.UnixNano(), AckNS: ack.UnixNano(), Busy: busy, OK: ok, Window: true})
	}
}

// closedChunks is how many equal slices the closed loop is timed in; the
// reported rate is the median slice's, so one stall (a GC, a slow fsync)
// moves one slice, not the result.
const closedChunks = 10

// closedLoop sends ops back to back and reports timer operations per
// second, and the compaction stall: the longest ack of any slice in which
// twd's /healthz snapshot count advanced, 0 when none did. The count is
// read between slices, on the scraper's connection.
func (r *runner) closedLoop(ctx context.Context, ops []op, sc *scraper) (float64, time.Duration, error) {
	h, err := sc.health()
	if err != nil {
		return 0, 0, err
	}
	var rates []float64
	var stall time.Duration
	per := (len(ops) + closedChunks - 1) / closedChunks
	for c := 0; c < len(ops); c += per {
		start := time.Now()
		done := 0
		var longest time.Duration
		for i := c; i < min(c+per, len(ops)); i++ {
			o := &ops[i]
			send := time.Now()
			ok := r.exec(ctx, o, false, send.UnixNano())
			ack := time.Now()
			if ok {
				done += o.timerOps()
			}
			longest = max(longest, ack.Sub(send))
			r.spans = append(r.spans, writeSpan{Kind: o.kind.String(), Ops: o.timerOps(),
				SendNS: send.UnixNano(), AckNS: ack.UnixNano(), OK: ok})
		}
		rates = append(rates, float64(done)/time.Since(start).Seconds())
		snaps := h.WAL.Snapshots
		if h, err = sc.health(); err != nil {
			return 0, 0, err
		}
		if h.WAL.Snapshots > snaps {
			stall = max(stall, longest)
		}
	}
	return median(rates), stall, nil
}

// pollFired follows /v1/fired from cursor since until ctx ends, counting
// any cursor gap: events the ring dropped before the client saw them.
func (r *runner) pollFired(ctx context.Context, since uint64) {
	for ctx.Err() == nil {
		page, err := r.poll.Fired(ctx, since, 5*time.Second)
		recv := time.Now().UnixNano()
		if err != nil {
			// The cursor loses nothing across a failed poll; retry.
			if ctx.Err() == nil {
				time.Sleep(10 * time.Millisecond)
			}
			continue
		}
		r.mu.Lock()
		r.polls++
		expect := since + 1
		for _, ev := range page.Events {
			if ev.Seq > expect {
				r.gaps += ev.Seq - expect
			}
			expect = ev.Seq + 1
			r.fires = append(r.fires, fireObs{Seq: ev.Seq, ID: ev.ID, FiredNS: ev.FiredNS, LagNS: ev.LagNS, RecvNS: recv})
		}
		if len(page.Events) > 0 {
			r.pollEvents += len(page.Events)
		}
		if page.Next >= expect {
			r.gaps += page.Next + 1 - expect
		}
		r.mu.Unlock()
		since = page.Next
	}
}

// received reports how many fire events have arrived.
func (r *runner) received() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fires)
}
