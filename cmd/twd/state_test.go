package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"timingwheels/internal/wal"
	"timingwheels/timer"
)

// postStatus sends a JSON request and decodes a 200 response into out
// (which may be nil), returning the status for the caller to judge.
func (f *fixture) postStatus(path string, body, out any) int {
	f.t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(f.ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		f.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			f.t.Fatalf("POST %s: decode %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

// replayCopy copies the WAL directory while holding s.mu — every append
// and every compaction runs under it, so the copy is exactly the log
// behind the State at that instant — and recovers the copy with
// wal.Open. It returns the recovered State and a copy of the live one.
func replayCopy(t *testing.T, s *server, dir string) (replayed, live *wal.State) {
	t.Helper()
	dst := t.TempDir()
	s.mu.Lock()
	live = &wal.State{
		Timers:    make(map[uint64]wal.TimerState, len(s.state.Timers)),
		Payloads:  make(map[uint64][]byte, len(s.state.Payloads)),
		Leases:    make(map[uint64]wal.LeaseState, len(s.state.Leases)),
		Scheduled: s.state.Scheduled, Fired: s.state.Fired, Cancelled: s.state.Cancelled,
		LeasesGranted: s.state.LeasesGranted, LeasesExpired: s.state.LeasesExpired,
		NextID: s.state.NextID,
	}
	for id, ts := range s.state.Timers {
		live.Timers[id] = ts
	}
	for id, p := range s.state.Payloads {
		live.Payloads[id] = p
	}
	for id, ls := range s.state.Leases {
		live.Leases[id] = ls
	}
	ents, err := os.ReadDir(dir)
	if err == nil {
		for _, e := range ents {
			name := e.Name()
			if !strings.HasPrefix(name, "wal-") && !strings.HasPrefix(name, "snap-") {
				continue
			}
			var data []byte
			if data, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				break
			}
			if err = os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
				break
			}
		}
	}
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("copy wal dir: %v", err)
	}
	l, rec, err := wal.Open(dst, wal.Options{})
	if err != nil {
		t.Fatalf("open wal copy: %v", err)
	}
	l.Close()
	return rec.State, live
}

// diffStates reports how a replayed State differs from the live one, or
// "" when they agree on every timer, lease, counter, and NextID.
func diffStates(replayed, live *wal.State) string {
	var b strings.Builder
	for id, want := range live.Timers {
		got, ok := replayed.Timers[id]
		if !ok {
			b.WriteString("missing timer; ")
			continue
		}
		if got != want || !bytes.Equal(replayed.Payloads[id], live.Payloads[id]) {
			b.WriteString("timer fields differ; ")
		}
	}
	if len(replayed.Timers) != len(live.Timers) || len(replayed.Payloads) != len(live.Payloads) {
		b.WriteString("timer count differs; ")
	}
	for id, want := range live.Leases {
		if got, ok := replayed.Leases[id]; !ok || got != want {
			b.WriteString("lease differs; ")
		}
	}
	if len(replayed.Leases) != len(live.Leases) {
		b.WriteString("lease count differs; ")
	}
	if replayed.Scheduled != live.Scheduled || replayed.Fired != live.Fired || replayed.Cancelled != live.Cancelled {
		b.WriteString("ledger differs; ")
	}
	if replayed.LeasesGranted != live.LeasesGranted || replayed.LeasesExpired != live.LeasesExpired {
		b.WriteString("lease counters differ; ")
	}
	if replayed.NextID != live.NextID {
		b.WriteString("NextID differs; ")
	}
	return b.String()
}

// TestLiveStateEqualsReplay runs seeded random programs — schedules,
// batches, stops, resets, lease grant/renew/release/expiry, fires, and
// compactions, with a small auto-compaction threshold on top — and,
// after every compaction and at the end, recovers a copy of the WAL
// directory: the replayed State must equal the live one. A seed that
// ever fails stays in the list.
func TestLiveStateEqualsReplay(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runLiveReplayProgram(t, seed, 150)
		})
	}
}

func runLiveReplayProgram(t *testing.T, seed int64, steps int) {
	dir := t.TempDir()
	f := newFixture(t, func(c *config) {
		c.dir = dir
		c.snapBytes = 4 << 10
		c.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	})
	rng := rand.New(rand.NewSource(seed))
	check := func(when string) {
		t.Helper()
		replayed, live := replayCopy(t, f.srv, dir)
		if d := diffStates(replayed, live); d != "" {
			t.Fatalf("seed %d, %s: replay != live: %s(live %d timers %d leases S/F/C %d/%d/%d next %d; replay %d timers %d leases S/F/C %d/%d/%d next %d)",
				seed, when, d, len(live.Timers), len(live.Leases), live.Scheduled, live.Fired, live.Cancelled, live.NextID,
				len(replayed.Timers), len(replayed.Leases), replayed.Scheduled, replayed.Fired, replayed.Cancelled, replayed.NextID)
		}
	}

	type leaseAck struct {
		Lease uint64 `json:"lease"`
	}
	// One lease is never renewed: its 1s TTL (the table's floor) lapses
	// during or after the program, and the expiry GCs its timers.
	var doomed leaseAck
	f.post("/v1/lease", map[string]any{"ttl_ms": 1000}, &doomed, 200)
	leases := []uint64{doomed.Lease}
	var ids []uint64
	pick := func(xs []uint64) uint64 { return xs[rng.Intn(len(xs))] }
	item := func() scheduleItem {
		it := scheduleItem{AfterMS: 60_000}
		if rng.Intn(2) == 0 {
			it.AfterMS = 1 + rng.Int63n(40) // fires during the program
		}
		if rng.Intn(3) == 0 {
			it.Payload = strings.Repeat("p", rng.Intn(24))
		}
		if rng.Intn(4) == 0 {
			it.Class = []string{"critical", "best-effort", "normal"}[rng.Intn(3)]
		}
		if rng.Intn(3) == 0 {
			it.Lease = pick(leases)
		}
		return it
	}
	snaps := f.srv.log.Stats().Snapshots
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op < 6:
			var ack scheduledAck
			if f.postStatus("/v1/schedule", item(), &ack) == http.StatusOK {
				ids = append(ids, ack.ID)
			}
		case op < 8:
			batch := make([]scheduleItem, 1+rng.Intn(5))
			for i := range batch {
				batch[i] = item()
			}
			var acks struct {
				Timers []scheduledAck `json:"timers"`
			}
			if f.postStatus("/v1/schedule-batch", map[string]any{"timers": batch}, &acks) == http.StatusOK {
				for _, a := range acks.Timers {
					ids = append(ids, a.ID)
				}
			}
		case op < 11 && len(ids) > 0:
			f.post("/v1/stop", map[string]any{"id": pick(ids)}, nil, 200)
		case op < 13 && len(ids) > 0:
			resets := make([]map[string]any, 1+rng.Intn(3))
			for i := range resets {
				after := 1 + rng.Int63n(40)
				if rng.Intn(2) == 0 {
					after = 60_000 + rng.Int63n(1000)
				}
				resets[i] = map[string]any{"id": pick(ids), "after_ms": after}
			}
			f.post("/v1/reset", map[string]any{"resets": resets}, nil, 200)
		case op == 13:
			var la leaseAck
			f.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &la, 200)
			leases = append(leases, la.Lease)
		case op == 14 && len(leases) > 1:
			f.postStatus("/v1/lease/renew", map[string]any{"lease": pick(leases[1:]), "ttl_ms": 60_000}, nil)
		case op == 15 && len(leases) > 1:
			f.postStatus("/v1/lease/release", map[string]any{"lease": pick(leases[1:])}, nil)
		case op == 16:
			f.srv.compact()
		case op == 17:
			time.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond) // let fires land
		}
		// Compactions also start on their own past snapBytes; the check
		// runs after each one, whichever path started it.
		if n := f.srv.log.Stats().Snapshots; n != snaps {
			snaps = n
			check("after compaction")
		}
	}
	check("end of program")

	// Let the doomed lease expire, and check the GC it logs.
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.srv.mu.Lock()
		_, alive := f.srv.state.Leases[doomed.Lease]
		f.srv.mu.Unlock()
		if !alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: lease %d never expired", seed, doomed.Lease)
		}
		time.Sleep(10 * time.Millisecond)
	}
	check("after lease expiry")
	h := f.checkLedger()
	t.Logf("seed %d: %d compactions; scheduled %d fired %d cancelled %d outstanding %d",
		seed, snaps, h.Scheduled, h.Fired, h.Cancelled, h.Outstanding)
}

// TestHealthzRecoveredIsBootTime: /healthz's recovered block reports
// what boot recovery found, so it must not follow the live State as
// timers are admitted and fire — while outstanding does.
func TestHealthzRecoveredIsBootTime(t *testing.T) {
	dir := t.TempDir()
	f1 := newFixture(t, func(c *config) { c.dir = dir })
	var lr struct {
		Lease uint64 `json:"lease"`
	}
	f1.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &lr, 200)
	for i := 0; i < 3; i++ {
		f1.post("/v1/schedule", scheduleItem{AfterMS: 60_000, Lease: lr.Lease}, nil, 200)
	}
	f1.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	f1.srv.shutdown(ctx)
	cancel()

	f2 := newFixture(t, func(c *config) { c.dir = dir })
	type recovered struct {
		Timers int  `json:"timers"`
		Leases int  `json:"leases"`
		Sealed bool `json:"sealed"`
	}
	read := func() (recovered, int) {
		var h struct {
			Outstanding int       `json:"outstanding"`
			Recovered   recovered `json:"recovered"`
		}
		f2.get("/healthz", &h)
		return h.Recovered, h.Outstanding
	}
	want := recovered{Timers: 3, Leases: 1, Sealed: true}
	if got, out := read(); got != want || out != 3 {
		t.Fatalf("at boot: recovered %+v outstanding %d, want %+v and 3", got, out, want)
	}
	f2.post("/v1/schedule", scheduleItem{AfterMS: 60_000}, nil, 200)
	f2.fireN(5, 5)
	if got, out := read(); got != want || out != 4 {
		t.Fatalf("after admissions and fires: recovered %+v outstanding %d, want %+v and 4", got, out, want)
	}
	if rec := f2.srv.recovered; rec.Outstanding != 3 || rec.Leases != 1 || !rec.Sealed {
		t.Fatalf("RecoverResult scalars %d/%d/%v moved with the live State", rec.Outstanding, rec.Leases, rec.Sealed)
	}
}

// BenchmarkBoot prices booting a primary on a 100k-timer snapshot —
// wal.Open's streaming replay plus arming every timer from the State —
// and reports the live heap the booted daemon holds per resident timer
// after a GC, in bytes and in heap objects.
func BenchmarkBoot(b *testing.B) {
	const n = 100_000
	dir := b.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st := wal.NewState()
	rng := rand.New(rand.NewSource(1))
	base := time.Now()
	for id := uint64(1); id <= n; id++ {
		// One to two hours out, so nothing fires while the benchmark runs.
		deadline := base.Add(time.Hour + time.Duration(rng.Int63n(int64(time.Hour))))
		st.Apply(wal.Record{Op: wal.OpSchedule, Class: uint8(timer.PriorityNormal), ID: id, Deadline: deadline.UnixNano()})
	}
	if err := l.Snapshot(st.Seed(0)); err != nil {
		b.Fatal(err)
	}
	l.Close()
	st = nil
	cfg := config{dir: dir, syncEvery: 64, logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	var perTimer, objsPerTimer float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		s, err := newServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		perTimer = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
		objsPerTimer = (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
		runtime.KeepAlive(s)
		s.shutdown(context.Background())
		b.StartTimer()
	}
	b.ReportMetric(perTimer, "B/timer")
	b.ReportMetric(objsPerTimer, "objects/timer")
}
