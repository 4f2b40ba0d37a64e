package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"timingwheels/clock"
	iclock "timingwheels/internal/clock"
	"timingwheels/internal/wal"
	"timingwheels/timer"
)

// fixture is an in-process daemon over a temp WAL dir with fast ticks.
type fixture struct {
	t   *testing.T
	srv *server
	ts  *httptest.Server
	dir string
}

func newFixture(t *testing.T, mutate func(*config)) *fixture {
	t.Helper()
	cfg := config{
		dir:          t.TempDir(),
		shards:       1,
		granularity:  2 * time.Millisecond,
		syncEvery:    1,
		syncInterval: 0,
		snapBytes:    0,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ts := httptest.NewServer(srv.routes())
	f := &fixture{t: t, srv: srv, ts: ts, dir: cfg.dir}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.shutdown(ctx)
	})
	return f
}

// post sends a JSON request and decodes the JSON response into out
// (which may be nil), failing the test on any status but want.
func (f *fixture) post(path string, body any, out any, want int) {
	f.t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(f.ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		f.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != want {
		f.t.Fatalf("POST %s: status %d (want %d): %s", path, resp.StatusCode, want, buf.String())
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			f.t.Fatalf("POST %s: decode %q: %v", path, buf.String(), err)
		}
	}
}

func (f *fixture) get(path string, out any) {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + path)
	if err != nil {
		f.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		f.t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		f.t.Fatalf("GET %s: decode: %v", path, err)
	}
}

type firedResp struct {
	Events []firedEvent `json:"events"`
	Next   uint64       `json:"next"`
}

// waitFired polls /v1/fired until pred is satisfied or the deadline
// passes, returning the last response.
func (f *fixture) waitFired(d time.Duration, pred func(firedResp) bool) firedResp {
	f.t.Helper()
	deadline := time.Now().Add(d)
	for {
		var fr firedResp
		f.get("/v1/fired", &fr)
		if pred(fr) {
			return fr
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("waitFired: condition not met; %d events", len(fr.Events))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type healthResp struct {
	Outstanding  int            `json:"outstanding"`
	Scheduled    uint64         `json:"scheduled_total"`
	Fired        uint64         `json:"fired_total"`
	Cancelled    uint64         `json:"cancelled_total"`
	LeasesActive int            `json:"leases_active"`
	Recovered    map[string]any `json:"recovered"`
}

// checkLedger asserts the durable conservation ledger on /healthz.
func (f *fixture) checkLedger() healthResp {
	f.t.Helper()
	var h healthResp
	f.get("/healthz", &h)
	if h.Scheduled != h.Fired+h.Cancelled+uint64(h.Outstanding) {
		f.t.Fatalf("ledger: scheduled=%d != fired=%d + cancelled=%d + outstanding=%d",
			h.Scheduled, h.Fired, h.Cancelled, h.Outstanding)
	}
	return h
}

func TestScheduleFiresWithPayload(t *testing.T) {
	f := newFixture(t, nil)
	var ack scheduledAck
	f.post("/v1/schedule", scheduleItem{AfterMS: 20, Payload: "hello"}, &ack, 200)
	if ack.ID == 0 || ack.DeadlineNS == 0 {
		t.Fatalf("bad ack: %+v", ack)
	}
	fr := f.waitFired(3*time.Second, func(fr firedResp) bool { return len(fr.Events) >= 1 })
	ev := fr.Events[0]
	if ev.ID != ack.ID || ev.Payload != "hello" {
		t.Fatalf("fired event %+v, want id=%d payload=hello", ev, ack.ID)
	}
	if ev.LagNS < 0 {
		t.Fatalf("negative lag %d", ev.LagNS)
	}
	f.checkLedger()
}

func TestStopPreventsFire(t *testing.T) {
	f := newFixture(t, nil)
	var ack scheduledAck
	f.post("/v1/schedule", scheduleItem{AfterMS: 60}, &ack, 200)
	var st struct {
		Stopped bool `json:"stopped"`
	}
	f.post("/v1/stop", map[string]any{"id": ack.ID}, &st, 200)
	if !st.Stopped {
		t.Fatal("stop refused")
	}
	time.Sleep(150 * time.Millisecond)
	var fr firedResp
	f.get("/v1/fired", &fr)
	for _, ev := range fr.Events {
		if ev.ID == ack.ID {
			t.Fatalf("stopped timer %d fired", ack.ID)
		}
	}
	h := f.checkLedger()
	if h.Cancelled != 1 || h.Outstanding != 0 {
		t.Fatalf("cancelled=%d outstanding=%d, want 1/0", h.Cancelled, h.Outstanding)
	}
	// Double stop reports false.
	f.post("/v1/stop", map[string]any{"id": ack.ID}, &st, 200)
	if st.Stopped {
		t.Fatal("second stop accepted")
	}
}

func TestResetPullsDeadlineIn(t *testing.T) {
	f := newFixture(t, nil)
	var batch struct {
		Timers []scheduledAck `json:"timers"`
	}
	f.post("/v1/schedule-batch", map[string]any{"timers": []scheduleItem{
		{AfterMS: 60_000}, {AfterMS: 60_000}, {AfterMS: 60_000},
	}}, &batch, 200)
	if len(batch.Timers) != 3 {
		t.Fatalf("batch acked %d, want 3", len(batch.Timers))
	}
	resets := make([]map[string]any, 3)
	for i, a := range batch.Timers {
		resets[i] = map[string]any{"id": a.ID, "after_ms": 20}
	}
	var rr struct {
		Matched  int `json:"matched"`
		Accepted int `json:"accepted"`
	}
	f.post("/v1/reset", map[string]any{"resets": resets}, &rr, 200)
	if rr.Matched != 3 || rr.Accepted != 3 {
		t.Fatalf("reset matched=%d accepted=%d, want 3/3", rr.Matched, rr.Accepted)
	}
	// The minute-long timers now fire in tens of milliseconds.
	f.waitFired(3*time.Second, func(fr firedResp) bool { return len(fr.Events) == 3 })
	f.checkLedger()
}

func TestLeaseExpiryGarbageCollects(t *testing.T) {
	f := newFixture(t, nil)
	var lr struct {
		Lease uint64 `json:"lease"`
	}
	// 1s is the table's minimum TTL.
	f.post("/v1/lease", map[string]any{"ttl_ms": 1000}, &lr, 200)
	var ack scheduledAck
	f.post("/v1/schedule", scheduleItem{AfterMS: 60_000, Lease: lr.Lease}, &ack, 200)
	h := f.checkLedger()
	if h.LeasesActive != 1 || h.Outstanding != 1 {
		t.Fatalf("leases=%d outstanding=%d, want 1/1", h.LeasesActive, h.Outstanding)
	}
	// No heartbeat: the watchdog expires the lease and GCs the timer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h = f.checkLedger()
		if h.LeasesActive == 0 && h.Outstanding == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease not GCd: leases=%d outstanding=%d", h.LeasesActive, h.Outstanding)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if h.Cancelled != 1 {
		t.Fatalf("cancelled=%d, want 1 (the GCd timer)", h.Cancelled)
	}
}

func TestLeaseRenewKeepsAlive(t *testing.T) {
	f := newFixture(t, nil)
	var lr struct {
		Lease uint64 `json:"lease"`
	}
	f.post("/v1/lease", map[string]any{"ttl_ms": 1000}, &lr, 200)
	// Renew a few times across the original TTL.
	for i := 0; i < 3; i++ {
		time.Sleep(600 * time.Millisecond)
		var rr struct {
			Expiry int64 `json:"expiry_unix_ns"`
		}
		f.post("/v1/lease/renew", map[string]any{"lease": lr.Lease, "ttl_ms": 1000}, &rr, 200)
		if rr.Expiry <= time.Now().UnixNano() {
			t.Fatal("renewed expiry not in the future")
		}
	}
	h := f.checkLedger()
	if h.LeasesActive != 1 {
		t.Fatalf("lease died despite heartbeats")
	}
}

func TestLeaseReleaseCancelsOwned(t *testing.T) {
	f := newFixture(t, nil)
	var lr struct {
		Lease uint64 `json:"lease"`
	}
	f.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &lr, 200)
	var a1, a2 scheduledAck
	f.post("/v1/schedule", scheduleItem{AfterMS: 60_000, Lease: lr.Lease}, &a1, 200)
	f.post("/v1/schedule", scheduleItem{AfterMS: 60_000}, &a2, 200) // leaseless survivor
	var rel struct {
		Cancelled []uint64 `json:"cancelled"`
	}
	f.post("/v1/lease/release", map[string]any{"lease": lr.Lease}, &rel, 200)
	if len(rel.Cancelled) != 1 || rel.Cancelled[0] != a1.ID {
		t.Fatalf("release cancelled %v, want [%d]", rel.Cancelled, a1.ID)
	}
	h := f.checkLedger()
	if h.Outstanding != 1 || h.LeasesActive != 0 {
		t.Fatalf("outstanding=%d leases=%d, want 1/0", h.Outstanding, h.LeasesActive)
	}
	// Scheduling against the released lease is refused.
	f.post("/v1/schedule", scheduleItem{AfterMS: 1000, Lease: lr.Lease}, nil, http.StatusConflict)
}

func TestBadRequests(t *testing.T) {
	f := newFixture(t, nil)
	f.post("/v1/schedule", scheduleItem{AfterMS: 10, Class: "extreme"}, nil, http.StatusBadRequest)
	f.post("/v1/schedule", scheduleItem{}, nil, http.StatusBadRequest)
	f.post("/v1/schedule-batch", map[string]any{"timers": []scheduleItem{}}, nil, http.StatusBadRequest)
	f.post("/v1/schedule", scheduleItem{AfterMS: 10, Lease: 999}, nil, http.StatusConflict)
	resp, err := http.Get(f.ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST endpoint: %d", resp.StatusCode)
	}
}

func TestMetricsExposeWALAndLeases(t *testing.T) {
	f := newFixture(t, nil)
	var ack scheduledAck
	f.post("/v1/schedule", scheduleItem{AfterMS: 10}, &ack, 200)
	f.waitFired(3*time.Second, func(fr firedResp) bool { return len(fr.Events) >= 1 })
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"timingwheels_wal_appends_total",
		"timingwheels_wal_syncs_total",
		"timingwheels_leases_active",
		"timingwheels_twd_scheduled_total 1",
		"timingwheels_twd_fired_total 1",
		"timingwheels_started_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestGracefulRestartReplaysOutstanding is the clean-shutdown half of
// durability: drain seals the log, and a new daemon over the same dir
// re-arms exactly the outstanding set — including a timer whose
// deadline passed "while down", which fires immediately after boot.
func TestGracefulRestartReplaysOutstanding(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, func(c *config) { c.dir = dir })
	var lr struct {
		Lease uint64 `json:"lease"`
	}
	f.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &lr, 200)
	var long, short, stopped scheduledAck
	f.post("/v1/schedule", scheduleItem{AfterMS: 60_000, Lease: lr.Lease, Payload: "long"}, &long, 200)
	f.post("/v1/schedule", scheduleItem{AfterMS: 300, Payload: "short"}, &short, 200)
	f.post("/v1/schedule", scheduleItem{AfterMS: 60_000}, &stopped, 200)
	f.post("/v1/stop", map[string]any{"id": stopped.ID}, nil, 200)

	// Graceful shutdown (the Cleanup would do this too, but we need it
	// NOW, before reopening the dir).
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	f.srv.shutdown(ctx)
	cancel()

	// Sleep past the short timer's deadline: it "expires during
	// downtime" and must fire immediately on boot with the true lag.
	time.Sleep(400 * time.Millisecond)

	srv2, err := newServer(config{dir: dir, granularity: 2 * time.Millisecond, syncEvery: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	ts2 := httptest.NewServer(srv2.routes())
	f2 := &fixture{t: t, srv: srv2, ts: ts2, dir: dir}
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv2.shutdown(ctx)
	})

	if !f2.srv.recovered.Sealed {
		t.Error("recovered log not sealed after graceful shutdown")
	}
	if f2.srv.recovered.Torn {
		t.Error("sealed log reported torn")
	}
	fr := f2.waitFired(3*time.Second, func(fr firedResp) bool { return len(fr.Events) >= 1 })
	ev := fr.Events[0]
	if ev.ID != short.ID || ev.Payload != "short" {
		t.Fatalf("boot fire %+v, want the past-deadline timer %d", ev, short.ID)
	}
	// The timer's deadline passed ~100ms+ before the new daemon booted
	// (scheduled at +300ms, we slept 400ms after shutdown); the recorded
	// lag must reflect that downtime, not the re-arm's one-tick delay.
	if ev.LagNS < int64(50*time.Millisecond) {
		t.Errorf("past-deadline lag %v, want downtime-scale lag", time.Duration(ev.LagNS))
	}
	h := f2.checkLedger()
	if h.Outstanding != 1 {
		t.Fatalf("outstanding=%d after boot fire, want 1 (the long timer)", h.Outstanding)
	}
	if h.LeasesActive != 1 {
		t.Fatalf("leases=%d, want 1 restored", h.LeasesActive)
	}
	var tl struct {
		Timers []struct {
			ID    uint64 `json:"id"`
			Lease uint64 `json:"lease"`
		} `json:"timers"`
	}
	f2.get("/v1/timers", &tl)
	if len(tl.Timers) != 1 || tl.Timers[0].ID != long.ID || tl.Timers[0].Lease != lr.Lease {
		t.Fatalf("outstanding set %+v, want the long lease-owned timer %d", tl.Timers, long.ID)
	}
}

// TestCompactionPreservesState drives the segment past a tiny snapshot
// threshold and verifies the log compacts while a restart still
// recovers the same outstanding set.
func TestCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, func(c *config) {
		c.dir = dir
		c.snapBytes = 2 << 10
	})
	var keep []uint64
	for i := 0; i < 40; i++ {
		var ack scheduledAck
		f.post("/v1/schedule", scheduleItem{AfterMS: 60_000, Payload: strings.Repeat("x", 64)}, &ack, 200)
		if i%2 == 0 {
			f.post("/v1/stop", map[string]any{"id": ack.ID}, nil, 200)
		} else {
			keep = append(keep, ack.ID)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h struct {
			WAL struct {
				Snapshots uint64 `json:"snapshots"`
			} `json:"wal"`
		}
		f.get("/healthz", &h)
		if h.WAL.Snapshots >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no compaction despite tiny threshold")
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	f.srv.shutdown(ctx)
	cancel()

	srv2, err := newServer(config{dir: dir, granularity: 2 * time.Millisecond, syncEvery: 1})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv2.shutdown(ctx)
	}()
	srv2.mu.Lock()
	got, armed := len(srv2.state.Timers), len(srv2.handles)
	for _, id := range keep {
		if _, ok := srv2.state.Timers[id]; !ok {
			srv2.mu.Unlock()
			t.Fatalf("timer %d lost across compaction+restart", id)
		}
		if _, ok := srv2.handles[id]; !ok {
			srv2.mu.Unlock()
			t.Fatalf("timer %d recovered but not re-armed", id)
		}
	}
	srv2.mu.Unlock()
	if got != len(keep) || armed != len(keep) {
		t.Fatalf("recovered %d timers (%d armed), want %d", got, armed, len(keep))
	}
}

// TestCompactIncludesPendingAdmissions pins the snapshot protocol
// against the admit/compact race: a timer whose OpSchedule is already
// WAL-committed but whose arm/publish has not run yet is in the State
// without a handle. It is outstanding — /healthz counts it, /v1/timers
// lists it, a stop answers it as unknown — and a compaction that
// rotates the old segment away must seed it, or the acked timer is
// silently gone from durable state.
func TestCompactIncludesPendingAdmissions(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, func(c *config) { c.dir = dir })
	srv := f.srv

	// One published timer for contrast, and one frozen mid-admission:
	// exactly the state admit() is in between its WAL commit and its
	// publish step.
	var ack scheduledAck
	f.post("/v1/schedule", scheduleItem{AfterMS: 60_000, Payload: "published"}, &ack, 200)
	deadline := time.Now().Add(time.Minute).UnixNano()
	srv.mu.Lock()
	inflight := srv.nextID.Add(1)
	rec := wal.Record{Op: wal.OpSchedule, ID: inflight, Deadline: deadline, Payload: []byte("inflight")}
	_, werr := srv.log.Append(rec)
	srv.state.Apply(rec)
	srv.mu.Unlock()
	if werr != nil {
		t.Fatalf("append: %v", werr)
	}
	if err := srv.log.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	if h := f.checkLedger(); h.Outstanding != 2 {
		t.Fatalf("outstanding=%d, want 2 (published + in flight)", h.Outstanding)
	}
	var tl struct {
		Timers []struct {
			ID         uint64 `json:"id"`
			DeadlineNS int64  `json:"deadline_unix_ns"`
		} `json:"timers"`
	}
	f.get("/v1/timers", &tl)
	if len(tl.Timers) != 2 || tl.Timers[0].ID != ack.ID || tl.Timers[1].ID != inflight || tl.Timers[1].DeadlineNS != deadline {
		t.Fatalf("/v1/timers = %+v, want the published %d and the in-flight %d", tl.Timers, ack.ID, inflight)
	}
	var stop struct {
		Stopped bool `json:"stopped"`
	}
	f.post("/v1/stop", map[string]any{"id": inflight}, &stop, 200)
	if stop.Stopped {
		t.Fatal("stop of an in-flight admission reported stopped")
	}

	srv.compact()
	if got := srv.log.Stats().Snapshots; got != 1 {
		t.Fatalf("snapshots=%d, want 1", got)
	}

	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	srv.shutdown(ctx)
	cancel()

	l, recov, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	defer l.Close()
	if _, ok := recov.State.Timers[inflight]; !ok || string(recov.State.Payloads[inflight]) != "inflight" {
		t.Fatalf("in-flight admission %d lost across compaction", inflight)
	}
	if _, ok := recov.State.Timers[ack.ID]; !ok || string(recov.State.Payloads[ack.ID]) != "published" {
		t.Fatalf("published timer %d lost across compaction", ack.ID)
	}
	if recov.State.NextID < inflight {
		t.Fatalf("NextID=%d, want >= %d", recov.State.NextID, inflight)
	}
}

// TestRestartAfterCompactionNeverReusesIDs settles every timer, compacts
// (discarding the settled history), restarts, and asserts the allocator
// resumes past the old IDs: a client holding a fired timer's stale ID
// must never be able to stop an unrelated new timer.
func TestRestartAfterCompactionNeverReusesIDs(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, func(c *config) { c.dir = dir })
	var ack scheduledAck
	f.post("/v1/schedule", scheduleItem{AfterMS: 1, Payload: "burn"}, &ack, 200)
	f.waitFired(3*time.Second, func(fr firedResp) bool { return len(fr.Events) >= 1 })

	// Everything settled: the outstanding set is empty, so a naive
	// "max outstanding ID" seed would restart the allocator at zero.
	f.srv.compact()
	if got := f.srv.log.Stats().Snapshots; got != 1 {
		t.Fatalf("snapshots=%d, want 1", got)
	}
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	f.srv.shutdown(ctx)
	cancel()

	srv2, err := newServer(config{dir: dir, granularity: 2 * time.Millisecond, syncEvery: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	ts2 := httptest.NewServer(srv2.routes())
	f2 := &fixture{t: t, srv: srv2, ts: ts2, dir: dir}
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv2.shutdown(ctx)
	})
	if got := srv2.nextID.Load(); got < ack.ID {
		t.Fatalf("allocator restarted at %d, below high-water %d", got, ack.ID)
	}
	var ack2 scheduledAck
	f2.post("/v1/schedule", scheduleItem{AfterMS: 60_000}, &ack2, 200)
	if ack2.ID <= ack.ID {
		t.Fatalf("restart issued ID %d, already used by the fired timer %d", ack2.ID, ack.ID)
	}
}

// TestErrorCodesAndRetryAfter pins the refusal contract: 503s carry a
// Retry-After hint and a machine-readable {"error": <code>} body, and
// validation failures name their code too — what twclient keys its
// retry policy off.
func TestErrorCodesAndRetryAfter(t *testing.T) {
	f := newFixture(t, nil)

	// Draining: every admission answers 503 draining + Retry-After.
	f.srv.mu.Lock()
	f.srv.draining = true
	f.srv.mu.Unlock()
	raw, _ := json.Marshal(map[string]any{"after_ms": 50})
	resp, err := http.Post(f.ts.URL+"/v1/schedule", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error   string `json:"error"`
		Message string `json:"message"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining schedule = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	if derr != nil || body.Error != "draining" {
		t.Fatalf("503 body error = %q (%v), want \"draining\"", body.Error, derr)
	}
	f.srv.mu.Lock()
	f.srv.draining = false
	f.srv.mu.Unlock()

	// Validation: 400 bad_request, no Retry-After.
	raw, _ = json.Marshal(map[string]any{"payload": "no deadline"})
	resp, err = http.Post(f.ts.URL+"/v1/schedule", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	derr = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || derr != nil || body.Error != "bad_request" {
		t.Fatalf("validation refusal = %d %q (%v), want 400 bad_request", resp.StatusCode, body.Error, derr)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("400 carries Retry-After; retrying a validation error is useless")
	}

	// A dead lease: 409 lease_not_alive.
	raw, _ = json.Marshal(map[string]any{"after_ms": 50, "lease": 999999})
	resp, err = http.Post(f.ts.URL+"/v1/schedule", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	derr = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || derr != nil || body.Error != "lease_not_alive" {
		t.Fatalf("dead-lease refusal = %d %q (%v), want 409 lease_not_alive", resp.StatusCode, body.Error, derr)
	}
}

// TestHealthzWALPosition pins the healthz WAL fields replication
// tooling keys off: epoch, segment bytes, and the durable prefix.
func TestHealthzWALPosition(t *testing.T) {
	f := newFixture(t, nil)
	f.post("/v1/schedule", map[string]any{"after_ms": 60_000}, nil, 200)

	var h struct {
		Role string `json:"role"`
		Term uint64 `json:"term"`
		Wal  struct {
			Epoch        uint64 `json:"epoch"`
			SegmentBytes int64  `json:"segment_bytes"`
			DurableBytes int64  `json:"durable_bytes"`
		} `json:"wal"`
	}
	f.get("/healthz", &h)
	if h.Role != "primary" || h.Term == 0 {
		t.Fatalf("role=%q term=%d, want primary with a positive term", h.Role, h.Term)
	}
	if h.Wal.SegmentBytes == 0 || h.Wal.DurableBytes == 0 {
		t.Fatalf("wal position empty after a durable admission: %+v", h.Wal)
	}
	if h.Wal.DurableBytes > h.Wal.SegmentBytes {
		t.Fatalf("durable %d exceeds segment %d", h.Wal.DurableBytes, h.Wal.SegmentBytes)
	}
}

// TestFiredLongPoll: /v1/fired?wait= parks until an event lands, wakes
// promptly when one does, and returns immediately for stale cursors.
func TestFiredLongPoll(t *testing.T) {
	f := newFixture(t, nil)

	// Park a long poll, then admit a timer that fires 40ms later: the
	// poll must return the event well before its wait bound.
	type pollResult struct {
		fr  firedResp
		el  time.Duration
		err error
	}
	res := make(chan pollResult, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(f.ts.URL + "/v1/fired?since=0&wait=5s")
		if err != nil {
			res <- pollResult{err: err}
			return
		}
		var fr firedResp
		err = json.NewDecoder(resp.Body).Decode(&fr)
		resp.Body.Close()
		res <- pollResult{fr: fr, el: time.Since(start), err: err}
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	f.post("/v1/schedule", map[string]any{"after_ms": 40}, nil, 200)
	r := <-res
	if r.err != nil {
		t.Fatalf("long poll: %v", r.err)
	}
	if len(r.fr.Events) == 0 {
		t.Fatal("long poll returned empty despite a fire")
	}
	if r.el >= 5*time.Second {
		t.Fatalf("long poll blocked the full wait (%v) instead of waking on the fire", r.el)
	}

	// A caught-up cursor with wait=0 returns immediately and empty.
	var fr firedResp
	f.get(fmt.Sprintf("/v1/fired?since=%d", r.fr.Next), &fr)
	if len(fr.Events) != 0 {
		t.Fatalf("caught-up cursor returned %d events", len(fr.Events))
	}

	// Malformed wait or cursor: 400 bad_request. A cursor that does not
	// parse must not read as 0 and replay the whole ring.
	for _, q := range []string{"wait=banana", "since=abc", "since=-1", "since=18446744073709551616"} {
		resp, err := http.Get(f.ts.URL + "/v1/fired?" + q)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || body.Error != "bad_request" {
			t.Fatalf("%s: %d %q (%v), want 400 bad_request", q, resp.StatusCode, body.Error, derr)
		}
	}
	f.get("/v1/fired?since=", &fr) // an empty cursor reads as 0

	// A wait past the server bound is clamped, not refused: the poll
	// with an absurd wait and a fresh fire still answers promptly.
	f.post("/v1/schedule", map[string]any{"after_ms": 20}, nil, 200)
	start := time.Now()
	resp, err := http.Get(f.ts.URL + fmt.Sprintf("/v1/fired?since=%d&wait=10h", r.fr.Next))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("clamped wait = %d, want 200", resp.StatusCode)
	}
	if time.Since(start) > maxFiredWait+5*time.Second {
		t.Fatalf("absurd wait not clamped: took %v", time.Since(start))
	}
}

// TestTermFenceOn421: a request bearing a higher term than the node's
// own is proof of deposal — the node fences itself and refuses the
// write with the machine-readable code.
func TestTermFenceOnHigherTerm(t *testing.T) {
	f := newFixture(t, nil)
	raw, _ := json.Marshal(map[string]any{"after_ms": 50})
	req, _ := http.NewRequest(http.MethodPost, f.ts.URL+"/v1/schedule", bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Twd-Term", "99")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest || derr != nil || body.Error != "fenced" {
		t.Fatalf("higher-term write = %d %q (%v), want 421 fenced", resp.StatusCode, body.Error, derr)
	}

	var h struct {
		Role string `json:"role"`
	}
	f.get("/healthz", &h)
	if h.Role != "fenced" {
		t.Fatalf("role after fencing = %q, want fenced", h.Role)
	}
	// Ordinary writes stay refused.
	raw, _ = json.Marshal(map[string]any{"after_ms": 50})
	resp, err = http.Post(f.ts.URL+"/v1/schedule", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("post-fence write = %d, want 421", resp.StatusCode)
	}
}

// TestBootGCsExpiredLeases: a lease that expired while the daemon was
// down is a client that died with it. Its timers must be GC'd during
// replay — synchronously, before the daemon admits anything — not via
// a watchdog racing the first admissions.
func TestBootGCsExpiredLeases(t *testing.T) {
	dir := t.TempDir()
	f1 := newFixture(t, func(c *config) { c.dir = dir })

	var lr struct {
		Lease uint64 `json:"lease"`
	}
	// 1s is the table's MinTTL floor; anything shorter silently clamps.
	f1.post("/v1/lease", map[string]any{"ttl_ms": 1000}, &lr, 200)
	f1.post("/v1/schedule", map[string]any{"after_ms": 60_000, "lease": lr.Lease}, nil, 200)
	f1.post("/v1/schedule", map[string]any{"after_ms": 60_000}, nil, 200) // leaseless control
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	f1.srv.shutdown(ctx)
	cancel()
	f1.ts.Close()

	// Let the lease's TTL lapse while "down".
	time.Sleep(1100 * time.Millisecond)

	f2 := newFixture(t, func(c *config) { c.dir = dir })
	// No settling wait: the GC must have happened inside newServer.
	h := f2.checkLedger()
	if h.LeasesActive != 0 {
		t.Fatalf("leases_active=%d at boot, want dead lease collected", h.LeasesActive)
	}
	if h.Outstanding != 1 {
		t.Fatalf("outstanding=%d, want only the leaseless timer", h.Outstanding)
	}
	if h.Cancelled != 1 {
		t.Fatalf("cancelled_total=%d, want the dead client's timer GC'd", h.Cancelled)
	}
}

// fireN admits n timers due within a few ticks, in batches, and waits
// until the daemon has fired want timers in total.
func (f *fixture) fireN(n int, want uint64) {
	f.t.Helper()
	for n > 0 {
		batch := make([]scheduleItem, min(n, 1000))
		for i := range batch {
			batch[i] = scheduleItem{AfterMS: 1}
		}
		f.post("/v1/schedule-batch", map[string]any{"timers": batch}, nil, 200)
		n -= len(batch)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		var h healthResp
		f.get("/healthz", &h)
		if h.Fired >= want {
			return
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("fired_total=%d, want %d", h.Fired, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkContiguous asserts events carry the seqs first, first+1, ... and
// that no timer appears twice.
func checkContiguous(t *testing.T, events []firedEvent, first uint64) {
	t.Helper()
	ids := make(map[uint64]struct{}, len(events))
	for i, ev := range events {
		if ev.Seq != first+uint64(i) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, first+uint64(i))
		}
		if _, dup := ids[ev.ID]; dup {
			t.Fatalf("timer %d delivered twice in one response", ev.ID)
		}
		ids[ev.ID] = struct{}{}
	}
}

// TestFiredRingWrap fires past the fired ring's capacity and reads it
// back through every kind of cursor: one older than the retention
// window, one inside the ring, a caught-up one, and a long poll parked
// while the ring wraps.
func TestFiredRingWrap(t *testing.T) {
	f := newFixture(t, nil)
	const extra = 500
	f.fireN(firedRingMax, firedRingMax)

	// Park a long poll at the head of the full ring, then wrap it.
	type pollResult struct {
		fr  firedResp
		err error
	}
	res := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(f.ts.URL + fmt.Sprintf("/v1/fired?since=%d&wait=10s", firedRingMax))
		if err != nil {
			res <- pollResult{err: err}
			return
		}
		var fr firedResp
		err = json.NewDecoder(resp.Body).Decode(&fr)
		resp.Body.Close()
		res <- pollResult{fr, err}
	}()
	parkBy := time.Now().Add(5 * time.Second)
	for parked := false; !parked; time.Sleep(time.Millisecond) {
		if time.Now().After(parkBy) {
			t.Fatal("long poll never parked")
		}
		f.srv.mu.Lock()
		parked = f.srv.firedNotify != nil
		f.srv.mu.Unlock()
	}
	f.fireN(extra, firedRingMax+extra)
	r := <-res
	if r.err != nil {
		t.Fatalf("parked poll: %v", r.err)
	}
	if len(r.fr.Events) == 0 {
		t.Fatal("parked poll woke with no events across the wrap")
	}
	checkContiguous(t, r.fr.Events, firedRingMax+1)
	if last := r.fr.Events[len(r.fr.Events)-1].Seq; r.fr.Next != last {
		t.Fatalf("parked poll: next=%d, last event seq %d", r.fr.Next, last)
	}

	// since=0 predates retention: exactly the retained window comes back.
	const total = firedRingMax + extra
	var fr firedResp
	f.get("/v1/fired?since=0", &fr)
	if len(fr.Events) != firedRingMax || fr.Next != total {
		t.Fatalf("since=0: %d events next=%d, want %d next=%d", len(fr.Events), fr.Next, firedRingMax, total)
	}
	checkContiguous(t, fr.Events, extra+1)

	// A cursor inside the ring gets exactly the events past it.
	const inside = total - 700
	f.get(fmt.Sprintf("/v1/fired?since=%d", inside), &fr)
	if len(fr.Events) != total-inside || fr.Next != total {
		t.Fatalf("since=%d: %d events next=%d, want %d next=%d", inside, len(fr.Events), fr.Next, total-inside, total)
	}
	checkContiguous(t, fr.Events, inside+1)

	// A caught-up cursor with wait=0 answers at once, empty.
	f.get(fmt.Sprintf("/v1/fired?since=%d&wait=0s", total), &fr)
	if len(fr.Events) != 0 || fr.Next != total {
		t.Fatalf("caught-up cursor: %d events next=%d, want none next=%d", len(fr.Events), fr.Next, total)
	}
	f.checkLedger()
}

// TestSyncEveryBoundsFireRecords: fire records are committed by nobody,
// so -sync-every alone must make them durable. With no admission after
// the fires and no interval sync, the count trigger's background sync
// has to cover the last fire record.
func TestSyncEveryBoundsFireRecords(t *testing.T) {
	const n = 8
	f := newFixture(t, func(c *config) { c.syncEvery = n; c.syncInterval = 0 })
	f.fireN(n, n)
	lastFire := f.srv.log.Stats().LSN // the fires are the last appends
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.srv.log.Stats()
		if st.Durable >= lastFire {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("durable LSN %d never reached the last fire record's %d", st.Durable, lastFire)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkSettleFullRing prices settling one fired timer once the fired
// ring is full, so every settle overwrites its oldest slot: a one-fire
// TimersFired batch's lock, WAL append, State apply, ring write and
// stage timeline.
func BenchmarkSettleFullRing(b *testing.B) {
	s, err := newServer(config{dir: b.TempDir(), syncEvery: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer s.shutdown(context.Background())
	ts := wal.TimerState{Deadline: time.Now().UnixNano()}
	payload := []byte("settle-payload")
	fire := make([]timer.Fire, 1)
	settle := func(id uint64) {
		s.mu.Lock()
		s.state.Timers[id] = ts
		s.state.Payloads[id] = payload
		s.mu.Unlock()
		fire[0].Tag = id
		s.TimersFired(fire)
	}
	for id := uint64(1); id <= firedRingMax; id++ {
		settle(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		settle(uint64(firedRingMax + 1 + i))
	}
}

// firedResponse is the /v1/fired reply as encoding/json sees it: the
// reference writeFired's bytes must match.
type firedResponse struct {
	Events []firedEvent `json:"events"`
	Next   uint64       `json:"next"`
}

// TestResponseBodiesByteIdentical pins the wire format of the typed
// response bodies: each encodes to exactly the bytes the equivalent
// map[string]any encoding produced, headers and status included.
func TestResponseBodiesByteIdentical(t *testing.T) {
	events := []firedEvent{
		{Seq: 7, ID: 42, FiredNS: 1_700_000_000_000_000_000, LagNS: 1234, Payload: "p", tlSeq: 9},
		{Seq: 8, ID: 43, FiredNS: 1_700_000_000_000_000_001},
	}
	acks := []scheduledAck{{ID: 1, DeadlineNS: 5}, {ID: 2, DeadlineNS: 6}}
	cases := []struct {
		name    string
		typed   any
		untyped any
	}{
		{"stop-true", stopResponse{Stopped: true}, map[string]any{"stopped": true}},
		{"stop-false", stopResponse{}, map[string]any{"stopped": false}},
		{"schedule-batch", batchResponse{Timers: acks}, map[string]any{"timers": acks}},
		{"fired", firedResponse{Events: events, Next: 9}, map[string]any{"events": events, "next": uint64(9)}},
		{"fired-nil", firedResponse{Next: 3}, map[string]any{"events": []firedEvent(nil), "next": uint64(3)}},
		{"fired-empty", firedResponse{Events: []firedEvent{}, Next: 3}, map[string]any{"events": []firedEvent{}, "next": uint64(3)}},
	}
	for _, c := range cases {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(got, c.typed)
		writeJSON(want, c.untyped)
		if got.Body.String() != want.Body.String() || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s: typed body %q, map body %q", c.name, got.Body, want.Body)
		}
	}

	// writeFired builds /v1/fired pages without reflection; they must be
	// the bytes encoding/json writes for the same firedResponse.
	var ctl strings.Builder
	for c := 0; c < 0x20; c++ {
		ctl.WriteByte(byte(c))
	}
	ctl.WriteByte(0x7f)
	payloads := []string{
		"", "p", `<script>alert("x&y")</script>`, `quote " and backslash \ \"`,
		ctl.String(), "naïve 日本語 ✓ 😀", "line\u2028sep\u2029para",
		"bad utf8 \xff\xfe end", "trunc \xe6\x97", "\x00",
	}
	pages := map[string][]firedEvent{"nil": nil, "empty": {}, "one": {{Seq: 1, ID: 2, FiredNS: 3, LagNS: 4}}}
	var mixed []firedEvent
	for i, p := range payloads {
		mixed = append(mixed, firedEvent{Seq: uint64(i), ID: uint64(100 + i), FiredNS: 1_700_000_000_000_000_000, LagNS: int64(i), Payload: p, tlSeq: 5})
	}
	pages["payloads"] = mixed
	pages["extremes"] = []firedEvent{
		{Seq: math.MaxUint64, ID: math.MaxUint64, FiredNS: math.MaxInt64, LagNS: math.MinInt64},
		{Seq: 0, ID: 0, FiredNS: math.MinInt64, LagNS: -1},
		{Seq: 1 << 63, ID: 10, FiredNS: -1_700_000_000, LagNS: math.MaxInt64, Payload: "x"},
	}
	for name, events := range pages {
		for _, next := range []uint64{0, 9, math.MaxUint64} {
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			writeFired(got, events, next)
			writeJSON(want, firedResponse{Events: events, Next: next})
			want.Header().Set("Content-Length", fmt.Sprint(want.Body.Len()))
			if got.Body.String() != want.Body.String() || fmt.Sprint(got.Header()) != fmt.Sprint(want.Header()) {
				t.Errorf("fired page %s next=%d:\n appender %q\n json     %q", name, next, got.Body, want.Body)
			}
		}
	}

	for _, status := range []int{http.StatusBadRequest, http.StatusServiceUnavailable} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		httpError(got, status, "wal_failed", `wal append: "disk" <full> & gone`)
		want.Header().Set("Content-Type", "application/json")
		if status == http.StatusServiceUnavailable {
			want.Header().Set("Retry-After", "1")
		}
		want.WriteHeader(status)
		json.NewEncoder(want).Encode(map[string]string{"error": "wal_failed", "message": `wal append: "disk" <full> & gone`})
		if got.Body.String() != want.Body.String() || got.Code != want.Code ||
			fmt.Sprint(got.Header()) != fmt.Sprint(want.Header()) {
			t.Errorf("error %d: typed %d %v %q, map %d %v %q", status,
				got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}

// TestSchemeSpansEveryInterval: twd's Scheme 7 refuses no interval the
// runtime can arm. Directly, it holds clock.MaxTicks plus a minute of
// lag at the default 1 ms tick; through a runtime whose facility lags
// the wall by that minute (a parked tickless driver), the longest
// requests are armed, not refused.
func TestSchemeSpansEveryInterval(t *testing.T) {
	if _, err := newScheme().StartTimer(timer.Tick(iclock.MaxTicks+60_000), func(timer.ID) {}); err != nil {
		t.Fatalf("MaxTicks plus a minute of lag refused: %v", err)
	}
	fc := clock.NewFake(time.Time{})
	rt := timer.NewRuntime(
		timer.WithSchemeFactory(newScheme),
		timer.WithGranularity(defaultGranularity),
		timer.WithClockSource(fc),
		timer.WithManualDriver(),
	)
	defer rt.Close()
	fc.Advance(time.Minute) // unpolled: the facility is 60000 ticks behind
	if _, err := rt.Schedule(timer.Tick(iclock.MaxTicks), func() {}); err != nil {
		t.Fatalf("Schedule(MaxTicks) refused: %v", err)
	}
	if _, err := rt.AfterFunc(math.MaxInt64, func() {}); err != nil {
		t.Fatalf("AfterFunc(MaxInt64) refused: %v", err)
	}
	if n := rt.Poll(); n != 0 || rt.Outstanding() != 2 {
		t.Fatalf("after catch-up: fired %d, outstanding %d; want 0 and 2", n, rt.Outstanding())
	}
}

// TestTenYearTimerAckedAndReplayed: at the default granularity a timer
// ten years out is acked (not refused as overloaded), listed, and
// re-armed by a restart's replay.
func TestTenYearTimerAckedAndReplayed(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, func(c *config) { c.dir = dir; c.granularity = 0 })
	if g := f.srv.cfg.granularity; g != time.Millisecond {
		t.Fatalf("default granularity %v, want 1ms", g)
	}
	const tenYears = 10 * 365 * 24 * time.Hour
	var ack scheduledAck
	f.post("/v1/schedule", scheduleItem{AfterMS: tenYears.Milliseconds(), Payload: "decade"}, &ack, 200)
	if d := time.Until(time.Unix(0, ack.DeadlineNS)); d < tenYears-time.Minute {
		t.Fatalf("acked deadline %v out, want ten years", d)
	}
	type listed struct {
		Timers []struct {
			ID         uint64 `json:"id"`
			DeadlineNS int64  `json:"deadline_unix_ns"`
		} `json:"timers"`
	}
	check := func(f *fixture, when string) {
		t.Helper()
		var tl listed
		f.get("/v1/timers", &tl)
		if len(tl.Timers) != 1 || tl.Timers[0].ID != ack.ID || tl.Timers[0].DeadlineNS != ack.DeadlineNS {
			t.Fatalf("%s: listed %+v, want timer %d at %d", when, tl.Timers, ack.ID, ack.DeadlineNS)
		}
		if h := f.checkLedger(); h.Outstanding != 1 || h.Fired != 0 {
			t.Fatalf("%s: outstanding=%d fired=%d, want 1 and 0", when, h.Outstanding, h.Fired)
		}
	}
	check(f, "before restart")

	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	f.srv.shutdown(ctx)
	cancel()
	srv2, err := newServer(config{dir: dir, syncEvery: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	f2 := &fixture{t: t, srv: srv2, ts: httptest.NewServer(srv2.routes()), dir: dir}
	t.Cleanup(func() {
		f2.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv2.shutdown(ctx)
	})
	check(f2, "after replay")
	if n := srv2.fac.Snapshot().Outstanding; n != 1 {
		t.Fatalf("facility holds %d timers after replay, want the decade timer armed", n)
	}
}

// TestMetricsReportWheelSlots: twd's hierarchy fills the wheel gauges
// from its finest level.
func TestMetricsReportWheelSlots(t *testing.T) {
	f := newFixture(t, nil)
	var ack scheduledAck
	// 100 ticks: on the 256-slot finest level, and pending while scraped.
	f.post("/v1/schedule", scheduleItem{AfterMS: 200}, &ack, 200)
	body := f.getText("/metrics")
	for _, want := range []string{
		fmt.Sprintf("timingwheels_wheel_slots %d", schemeRadices[0]),
		"timingwheels_wheel_occupied_slots 1",
		"timingwheels_wheel_max_slot_depth 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
