package main

import (
	"bufio"
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timingwheels/internal/stagetrace"
	"timingwheels/twclient"
)

// findTimeline scans a /v1/trace dump for the timeline of the given
// kind covering timer id — directly for fires, via the [ID, ID+Count)
// batch range for admissions. Ring-duplicated seqs resolve to the copy
// with the most stages.
func findTimeline(t *testing.T, dump, kind string, id uint64) (stagetrace.Timeline, bool) {
	t.Helper()
	var best stagetrace.Timeline
	found := false
	sc := bufio.NewScanner(strings.NewReader(dump))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		tl, err := stagetrace.Parse(sc.Bytes())
		if err != nil || tl.NStages == 0 || tl.Kind != kind {
			continue
		}
		covers := tl.ID == id
		if kind == "admit" && tl.Count > 1 {
			covers = id >= tl.ID && id < tl.ID+uint64(tl.Count)
		}
		if covers && (!found || tl.NStages > best.NStages) {
			best, found = tl, true
		}
	}
	return best, found
}

// chaosProxy is a TCP proxy the standby replicates through. Its mode
// decides each connection's fate: pass it cleanly, refuse it, stall it
// (accept, forward nothing), or truncate it — forward a bounded number
// of bytes and cut the connection mid-frame. Switching modes kills the
// open connections so the follower feels the change immediately.
type chaosProxy struct {
	ln     net.Listener
	target string
	mode   atomic.Int32
	rng    *rand.Rand
	rngMu  sync.Mutex

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

const (
	chaosPass int32 = iota
	chaosDrop
	chaosStall
	chaosTruncate
)

func newChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, target: target,
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
		conns: make(map[net.Conn]struct{})}
	t.Cleanup(func() { ln.Close(); p.closeAll() })
	go p.acceptLoop()
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

func (p *chaosProxy) setMode(m int32) {
	p.mode.Store(m)
	p.closeAll() // live connections adopt the new weather by dying
}

func (p *chaosProxy) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
		delete(p.conns, c)
	}
}

func (p *chaosProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *chaosProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *chaosProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.serve(c)
	}
}

func (p *chaosProxy) serve(client net.Conn) {
	defer client.Close()
	mode := p.mode.Load()
	if mode == chaosDrop {
		return
	}
	p.track(client)
	defer p.untrack(client)
	if mode == chaosStall {
		// Hold the connection open and silent until the mode changes
		// (closeAll kills us) or the peer gives up.
		io.Copy(io.Discard, client)
		return
	}
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer upstream.Close()
	p.track(upstream)
	defer p.untrack(upstream)

	done := make(chan struct{}, 2)
	go func() { io.Copy(upstream, client); done <- struct{}{} }()
	go func() {
		if mode == chaosTruncate {
			// Forward a random sliver of the response, then cut: the
			// follower sees a stream truncated mid-frame.
			p.rngMu.Lock()
			n := int64(64 + p.rng.Intn(256))
			p.rngMu.Unlock()
			io.CopyN(client, upstream, n)
			client.Close()
			upstream.Close()
		} else {
			io.Copy(client, upstream)
		}
		done <- struct{}{}
	}()
	<-done
}

// replHealth is the standby /healthz subset the harness watches.
type replHealth struct {
	Role        string `json:"role"`
	Term        uint64 `json:"term"`
	Replication struct {
		CursorEpoch   uint64 `json:"cursor_epoch"`
		CursorOffset  int64  `json:"cursor_offset"`
		BytesBehind   int64  `json:"bytes_behind"`
		RecordsBehind uint64 `json:"records_behind"`
		FramesApplied uint64 `json:"frames_applied"`
		Seeds         uint64 `json:"seeds"`
		Resyncs       uint64 `json:"resyncs"`
		NetErrors     uint64 `json:"net_errors"`
	} `json:"replication"`
	Wal struct {
		Epoch        uint64 `json:"epoch"`
		DurableBytes int64  `json:"durable_bytes"`
	} `json:"wal"`
}

// TestE2EFailover is the headline replication test: a primary takes
// live traffic while a warm standby follows it through a chaos proxy
// that drops, stalls, and truncates the stream mid-frame. The primary
// is then SIGKILLed at an arbitrary point, the (possibly lagging)
// standby is promoted, clients rediscover it, and the per-id ledger
// must close: every acked, non-cancelled timer fires exactly once
// across the failover, and the fenced old primary never double-fires.
func TestE2EFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and sleeps; skipped in -short")
	}
	dirA, dirB := t.TempDir(), t.TempDir()

	// Primary A: sync-every=1 so every acked write is durable — the
	// foundation of "acked implies replicable".
	a := startTwd(t, dirA)

	// Standby B follows A through the chaos proxy.
	proxy := newChaosProxy(t, a.addr)
	b := startTwd(t, dirB, "-follow=http://"+proxy.addr())

	cl, err := twclient.New(twclient.Config{
		Endpoints:   []string{a.url(""), b.url("")},
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  250 * time.Millisecond,
		MaxAttempts: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A long-TTL lease so expiry GC cannot muddy the ledger mid-test,
	// and so promotion must carry it over.
	leaseID, _, err := cl.LeaseGrant(ctx, time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	acked := make(map[uint64]struct{})  // every client-acked admission
	stopped := make(map[uint64]struct{}) // every client-acked stop

	// Long timers that must survive the failover and fire on B: they
	// outlive the chaos + kill window by a wide margin.
	longAcks, err := cl.ScheduleBatch(ctx, func() []twclient.ScheduleReq {
		reqs := make([]twclient.ScheduleReq, 10)
		for i := range reqs {
			reqs[i] = twclient.ScheduleReq{AfterMS: 8_000, Class: "critical"}
			if i%2 == 0 {
				reqs[i].Lease = leaseID
			}
		}
		return reqs
	}())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range longAcks {
		acked[a.ID] = struct{}{}
	}
	// Stop three of them; a stopped timer returning anywhere is a bug.
	for _, ack := range longAcks[:3] {
		ok, err := cl.Stop(ctx, ack.ID)
		if err != nil || !ok {
			t.Fatalf("stop %d: ok=%v err=%v", ack.ID, ok, err)
		}
		stopped[ack.ID] = struct{}{}
	}

	// Traffic phase under chaos: short timers fire while the proxy
	// cycles through drop, stall, truncate, and recovery. Every
	// admission is synchronous — when the loop exits, nothing acked is
	// in flight.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for _, m := range []int32{chaosDrop, chaosPass, chaosTruncate, chaosPass, chaosStall, chaosPass} {
			proxy.setMode(m)
			time.Sleep(300 * time.Millisecond)
		}
	}()
	firedPre := make(map[uint64]struct{})
	var cursor uint64
	trafficUntil := time.Now().Add(2 * time.Second)
	for time.Now().Before(trafficUntil) {
		ack, err := cl.Schedule(ctx, twclient.ScheduleReq{AfterMS: int64(100 + rand.Intn(300)), Payload: "bg"})
		if err != nil {
			t.Fatalf("schedule under chaos: %v", err)
		}
		acked[ack.ID] = struct{}{}
		cursor = a.pollFired(t, cursor, firedPre)
		time.Sleep(15 * time.Millisecond)
	}
	<-chaosDone
	proxy.setMode(chaosPass)

	// The standby must have felt the chaos and recovered from it.
	var bh replHealth
	b.get(t, "/healthz", &bh)
	if bh.Role != "standby" {
		t.Fatalf("B role = %q, want standby", bh.Role)
	}
	if bh.Replication.NetErrors == 0 {
		t.Error("standby reports zero net errors despite drops/stalls/truncations")
	}

	// Quiesce the primary: every short timer settles (each settle is a
	// durable OpFire append), leaving only the seven surviving long
	// timers — whose 8s deadlines are far beyond the kill window. After
	// this, A's WAL stops growing, which is what makes a catch-up
	// barrier meaningful and the kill window fire-free.
	longSurvivors := make(map[uint64]struct{})
	for _, ack := range longAcks[3:] {
		longSurvivors[ack.ID] = struct{}{}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cursor = a.pollFired(t, cursor, firedPre)
		var tl struct {
			Timers []struct {
				ID uint64 `json:"id"`
			} `json:"timers"`
		}
		a.get(t, "/v1/timers", &tl)
		shortLeft := false
		for _, tv := range tl.Timers {
			if _, isLong := longSurvivors[tv.ID]; !isLong {
				shortLeft = true
			}
		}
		if !shortLeft && len(tl.Timers) == len(longSurvivors) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never quiesced: %d outstanding, want %d long survivors",
				len(tl.Timers), len(longSurvivors))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Catch-up barrier: the standby converges to the primary's (now
	// static) durable boundary. After this, acked == replicated, which
	// is what makes the post-failover accounting exact.
	var ah struct {
		Wal struct {
			Epoch        uint64 `json:"epoch"`
			DurableBytes int64  `json:"durable_bytes"`
		} `json:"wal"`
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		a.get(t, "/healthz", &ah)
		b.get(t, "/healthz", &bh)
		if bh.Replication.CursorEpoch == ah.Wal.Epoch &&
			bh.Replication.CursorOffset == ah.Wal.DurableBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up: cursor %d@%d, primary durable %d@%d (net_errors=%d resyncs=%d)",
				bh.Replication.CursorOffset, bh.Replication.CursorEpoch,
				ah.Wal.DurableBytes, ah.Wal.Epoch,
				bh.Replication.NetErrors, bh.Replication.Resyncs)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Last pre-kill observation — including A's stage-timeline dump, the
	// admission half of the cross-node timeline reconstructed below —
	// then SIGKILL the primary: no request in flight, no warning to
	// anyone.
	cursor = a.pollFired(t, cursor, firedPre)
	traceA := a.getRaw(t, "/v1/trace")
	if err := a.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	a.cmd.Wait()

	// Promote the lagging standby.
	term, err := cl.Promote(ctx, b.url(""))
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if term < 2 {
		t.Fatalf("promoted term = %d, want >= 2", term)
	}
	b.get(t, "/healthz", &bh)
	if bh.Role != "primary" {
		t.Fatalf("post-promotion role = %q, want primary", bh.Role)
	}

	// The client rediscovers the new primary transparently: its first
	// attempt hits dead A, rotates, lands on B.
	postAck, err := cl.Schedule(ctx, twclient.ScheduleReq{AfterMS: 200, Payload: "post-failover"})
	if err != nil {
		t.Fatalf("schedule after failover: %v", err)
	}
	acked[postAck.ID] = struct{}{}
	if got := cl.Endpoint(); got != b.url("") {
		t.Fatalf("client endpoint = %s, want promoted %s", got, b.url(""))
	}
	if cl.Term() != term {
		t.Fatalf("client term = %d, want %d", cl.Term(), term)
	}

	// Wait for quiescence on B: every short timer and every surviving
	// long timer fires; only nothing must remain.
	firedPost := make(map[uint64]struct{})
	var cursorB uint64
	outstanding := make(map[uint64]struct{})
	deadline = time.Now().Add(20 * time.Second)
	for {
		cursorB = b.pollFired(t, cursorB, firedPost)
		var tl struct {
			Timers []struct {
				ID uint64 `json:"id"`
			} `json:"timers"`
		}
		b.get(t, "/v1/timers", &tl)
		outstanding = make(map[uint64]struct{})
		for _, tv := range tl.Timers {
			outstanding[tv.ID] = struct{}{}
		}
		if len(outstanding) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no quiescence on B: %d still outstanding", len(outstanding))
		}
		time.Sleep(25 * time.Millisecond)
	}
	// A timer that fired between the loop's last poll and its /v1/timers
	// read left the outstanding set unobserved: collect it from B's ring.
	b.pollFired(t, cursorB, firedPost)

	// Per-id exactly-once across the failover. sync-every=1 makes every
	// observed pre-kill fire durable and therefore replicated: the pre
	// and post sets must be disjoint.
	for id := range firedPre {
		if _, again := firedPost[id]; again {
			t.Errorf("timer %d fired on both sides of the failover", id)
		}
	}
	for id := range stopped {
		_, pre := firedPre[id]
		_, post := firedPost[id]
		if pre || post {
			t.Errorf("stopped timer %d fired (pre=%v post=%v)", id, pre, post)
		}
	}
	// Every acked, non-stopped timer fired exactly once, somewhere. The
	// catch-up barrier means there are no unobservable fires: anything
	// durable on A at the kill was either in firedPre or replicated to B
	// and fires there.
	for id := range acked {
		if _, wasStopped := stopped[id]; wasStopped {
			continue
		}
		_, pre := firedPre[id]
		_, post := firedPost[id]
		if pre == post { // neither, or impossibly both (caught above)
			t.Errorf("timer %d: fired pre=%v post=%v, want exactly once", id, pre, post)
		}
	}

	// B's conservation ledger closes over the whole replicated history.
	var h e2eHealth
	b.get(t, "/healthz", &h)
	if h.Scheduled != uint64(len(acked)) {
		t.Errorf("B scheduled_total=%d, want %d acked admissions", h.Scheduled, len(acked))
	}
	if h.Cancelled != uint64(len(stopped)) {
		t.Errorf("B cancelled_total=%d, want %d acked stops", h.Cancelled, len(stopped))
	}
	if h.Scheduled != h.Fired+h.Cancelled+uint64(h.Outstanding) {
		t.Errorf("B ledger open: scheduled=%d fired=%d cancelled=%d outstanding=%d",
			h.Scheduled, h.Fired, h.Cancelled, h.Outstanding)
	}
	if h.LeasesActive != 1 {
		t.Errorf("B leases_active=%d, want the carried-over lease", h.LeasesActive)
	}

	// Timeline reconstruction across the failover: a surviving long
	// timer was admitted on A and fired on B after promotion. The WAL
	// carries no trace IDs, so the durable timer ID is the correlator:
	// A's dump must hold the batch admission covering the ID, B's dump
	// must hold its fire timeline, and both must satisfy the
	// sum-of-stages == total invariant that makes the decomposition
	// trustworthy.
	var survivorID uint64
	for id := range longSurvivors {
		if _, postFired := firedPost[id]; postFired {
			survivorID = id
			break
		}
	}
	if survivorID == 0 {
		t.Fatal("no surviving long timer fired on B; cannot reconstruct a cross-node timeline")
	}
	admitTL, okA := findTimeline(t, traceA, "admit", survivorID)
	if !okA {
		t.Errorf("A's trace dump has no admission timeline covering timer %d", survivorID)
	}
	fireTL, okB := findTimeline(t, b.getRaw(t, "/v1/trace"), "fire", survivorID)
	if !okB {
		t.Errorf("B's trace dump has no fire timeline for timer %d", survivorID)
	}
	if okA && okB {
		for _, tl := range []stagetrace.Timeline{admitTL, fireTL} {
			var sum int64
			for i := 0; i < tl.NStages; i++ {
				sum += tl.Stages[i].NS
			}
			if sum != tl.TotalNS {
				t.Errorf("%s timeline for %d: stage sum %d != total %d", tl.Kind, survivorID, sum, tl.TotalNS)
			}
		}
		if admitTL.Trace == "" {
			t.Error("A's admission timeline lost its client trace ID")
		}
		if fireTL.Trace != "" {
			t.Errorf("B's replayed fire timeline carries trace %q; the WAL has no trace column, so it must be empty", fireTL.Trace)
		}
		// The two halves lie on one wall-clock axis: the admission
		// started before the deadline the fire is anchored to.
		if admitTL.StartNS > fireTL.StartNS {
			t.Errorf("admission at %d is after the fire deadline %d", admitTL.StartNS, fireTL.StartNS)
		}
	}

	// The deposed primary comes back with -peers pointing at B: it must
	// discover the higher term, boot fenced, refuse writes, and never
	// fire anything — even though its WAL still holds armed-looking
	// timers whose deadlines have long passed.
	a2 := startTwd(t, dirA, "-peers="+b.url(""))
	a2.stdoutMu.Lock()
	bootOut := a2.stdout.String()
	a2.stdoutMu.Unlock()
	if !strings.Contains(bootOut, "twd boot fenced") {
		t.Errorf("old primary did not report fencing at boot:\n%s", bootOut)
	}
	var a2h replHealth
	a2.get(t, "/healthz", &a2h)
	if a2h.Role != "fenced" {
		t.Errorf("old primary role = %q, want fenced", a2h.Role)
	}
	// Write attempts answer 421 with the machine-readable code.
	resp, err := http.Post(a2.url("/v1/schedule"), "application/json",
		strings.NewReader(`{"after_ms": 50}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Errorf("fenced schedule = %d, want 421", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"error":"fenced"`) {
		t.Errorf("fenced error body = %s, want error code \"fenced\"", body)
	}
	// Its timers were recovered for inspection but never armed: give the
	// stalest deadline ample time, then assert nothing fired.
	time.Sleep(500 * time.Millisecond)
	noneFired := make(map[uint64]struct{})
	a2.pollFired(t, 0, noneFired)
	if len(noneFired) != 0 {
		t.Errorf("fenced old primary fired %d timers; double-fire hazard", len(noneFired))
	}
}
