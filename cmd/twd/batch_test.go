package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"timingwheels/clock"
)

// TestStormLeavesOnOnePage: timers that share a deadline fire on one
// tick, settle as one batch and wake the long-poller once, so a parked
// /v1/fired?wait= poll returns the whole storm on its first page, every
// timer exactly once.
func TestStormLeavesOnOnePage(t *testing.T) {
	const n = 500
	f := newFixture(t, nil)
	deadline := time.Now().Add(300 * time.Millisecond).UnixNano()
	items := make([]scheduleItem, n)
	for i := range items {
		items[i] = scheduleItem{DeadlineNS: deadline}
	}
	var batch batchResponse
	f.post("/v1/schedule-batch", map[string]any{"timers": items}, &batch, 200)
	if len(batch.Timers) != n {
		t.Fatalf("acked %d timers, want %d", len(batch.Timers), n)
	}
	var fr firedResp
	f.get("/v1/fired?since=0&wait=10s", &fr)
	if len(fr.Events) != n {
		t.Fatalf("first long-poll page carried %d events, want the whole storm of %d", len(fr.Events), n)
	}
	checkContiguous(t, fr.Events, 1)
	want := make(map[uint64]bool, n)
	for _, a := range batch.Timers {
		want[a.ID] = true
	}
	for _, ev := range fr.Events {
		if !want[ev.ID] {
			t.Fatalf("event for id %d: not acked in this storm, or delivered twice", ev.ID)
		}
		delete(want, ev.ID)
	}
	var rest firedResp
	f.get(fmt.Sprintf("/v1/fired?since=%d&wait=50ms", fr.Next), &rest)
	if len(rest.Events) != 0 {
		t.Fatalf("%d events after the storm's page, want none", len(rest.Events))
	}
	if h := f.checkLedger(); h.Fired != n || h.Outstanding != 0 {
		t.Fatalf("fired=%d outstanding=%d, want %d/0", h.Fired, h.Outstanding, n)
	}
}

// steppingClock is a clock.Fake on which, while step is set, every Now
// read advances time by step: each clock read a handler makes stands in
// for the work between reads.
type steppingClock struct {
	*clock.Fake
	step atomic.Int64
}

func (c *steppingClock) Now() time.Time {
	now := c.Fake.Now()
	if d := c.step.Load(); d > 0 {
		c.Fake.Advance(time.Duration(d))
	}
	return now
}

// TestArmCountsFromCommit: the runtime counts a timer's delay from its
// arm, so twd must convert the acked wall deadline into a delay at the
// arm, not at the request's first clock read: the WAL append and commit
// in between would otherwise make every fire late by their duration.
// Here every clock read costs half a tick, so the admission's stage
// marks (decode, append, commit) put two ticks between the request's
// first read and its arm; the armed deadline must still match the
// acked one within the runtime's one-tick window. A reset converts its
// new deadline the same way.
func TestArmCountsFromCommit(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	clk := &steppingClock{Fake: clock.NewFake(epoch)}
	var gran time.Duration
	f := newFixture(t, func(c *config) { c.clk = clk; gran = c.granularity })

	// armedAfter waits for the facility's n-th traced arm and reports
	// the wall time of the deadline tick it armed.
	armedAfter := func(n int) time.Time {
		t.Helper()
		waitUntil := time.Now().Add(5 * time.Second)
		for {
			var buf bytes.Buffer
			if err := f.srv.fac.DumpTrace(&buf); err != nil {
				t.Fatalf("DumpTrace: %v", err)
			}
			var arms []int64
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				var ev struct {
					Kind     string `json:"kind"`
					Deadline int64  `json:"deadline"`
				}
				if json.Unmarshal([]byte(line), &ev) == nil && ev.Kind == "scheduled" {
					arms = append(arms, ev.Deadline)
				}
			}
			if len(arms) >= n {
				return epoch.Add(time.Duration(arms[n-1]) * gran)
			}
			if time.Now().After(waitUntil) {
				t.Fatalf("the facility traced %d arms, want %d", len(arms), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	within := func(what string, armed time.Time, ackedNS int64) {
		t.Helper()
		if d := armed.Sub(time.Unix(0, ackedNS)); d < -gran || d > gran {
			t.Fatalf("%s: armed deadline is %v from the acked deadline, want within one tick (%v)", what, d, gran)
		}
	}

	clk.step.Store(int64(gran / 2))
	var ack scheduledAck
	f.post("/v1/schedule", scheduleItem{AfterMS: 100}, &ack, 200)
	clk.step.Store(0)
	within("schedule", armedAfter(1), ack.DeadlineNS)

	clk.step.Store(int64(gran / 2))
	resetAt := clk.Fake.Now()
	var rr map[string]int
	f.post("/v1/reset", map[string]any{"resets": []map[string]any{{"id": ack.ID, "after_ms": 300}}}, &rr, 200)
	clk.step.Store(0)
	if rr["accepted"] != 1 {
		t.Fatalf("reset accepted %d, want 1", rr["accepted"])
	}
	var timers struct {
		Timers []struct {
			ID         uint64 `json:"id"`
			DeadlineNS int64  `json:"deadline_unix_ns"`
		} `json:"timers"`
	}
	f.get("/v1/timers", &timers)
	if len(timers.Timers) != 1 || timers.Timers[0].DeadlineNS <= resetAt.UnixNano() {
		t.Fatalf("timers after reset: %+v", timers.Timers)
	}
	// A staged reset to a later deadline does not wake the parked
	// driver: it applies when the driver wakes for the old deadline,
	// which has not passed on the fake clock yet.
	clk.Fake.Advance(150 * time.Millisecond)
	within("reset", armedAfter(2), timers.Timers[0].DeadlineNS)
}

// discardWriter is an http.ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header       { return w.h }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}

// BenchmarkFiredPage times writing a 1000-event /v1/fired page, as a
// fire storm leaves twd, with the strconv appender and with
// encoding/json.
func BenchmarkFiredPage(b *testing.B) {
	events := make([]firedEvent, 1000)
	for i := range events {
		events[i] = firedEvent{
			Seq: uint64(1_000_001 + i), ID: uint64(5_000_000 + i),
			FiredNS: 1_760_000_000_123_456_789, LagNS: int64(2_000_000 + i),
		}
	}
	w := discardWriter{h: http.Header{}}
	b.Run("encode/append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeFired(w, events, 1_001_000)
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeJSON(w, firedResponse{Events: events, Next: 1_001_000})
		}
	})
}
