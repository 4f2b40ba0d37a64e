package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timingwheels/clock"
	"timingwheels/internal/wal"
	"timingwheels/timer"
)

type leaseGrant struct {
	Lease    uint64 `json:"lease"`
	ExpiryNS int64  `json:"expiry_unix_ns"`
}

// TestLeaseExpiresOnDaemonClock pins lease expiry to twd's own clock: on
// a fake clock set years away from the wall clock, a 1 s lease granted
// at the fake now must be expired, and its timer collected, once 5 s of
// fake time have passed.
func TestLeaseExpiresOnDaemonClock(t *testing.T) {
	epoch := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	fc := clock.NewFake(epoch)
	f := newFixture(t, func(c *config) { c.clk = fc })

	var lr leaseGrant
	f.post("/v1/lease", map[string]any{"ttl_ms": 1000}, &lr, 200)
	if want := epoch.Add(time.Second).UnixNano(); lr.ExpiryNS != want {
		t.Fatalf("lease expiry %v, want %v (fake now + 1s)", time.Unix(0, lr.ExpiryNS), time.Unix(0, want))
	}
	var ack scheduledAck
	f.post("/v1/schedule", scheduleItem{AfterMS: 60_000, Lease: lr.Lease}, &ack, 200)

	for i := 0; i < 50; i++ {
		fc.Advance(100 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := f.checkLedger()
		if h.LeasesActive == 0 && h.Outstanding == 0 && h.Cancelled == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 5s of fake time: leases_active=%d outstanding=%d cancelled=%d, want 0/0/1",
				h.LeasesActive, h.Outstanding, h.Cancelled)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLeaseIDsNeverReissued grants leases 1 and 2, releases 2 and
// restarts: the next grant must be 3, not 2, or a client still holding
// lease 2 would renew (and own timers under) someone else's lease. A
// compaction before the restart must not lose the high-water, nor must
// a promotion: a standby that replicated the grants and the release
// issues 3 once promoted. A grant answered 503 after its record was
// committed burns its ID too: the lease replays, and the next grant
// after a restart is past it.
func TestLeaseIDsNeverReissued(t *testing.T) {
	for _, compact := range []bool{false, true} {
		name := "restart"
		if compact {
			name = "compact-restart"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			f := newFixture(t, func(c *config) { c.dir = dir })
			var l1, l2 leaseGrant
			f.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &l1, 200)
			f.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &l2, 200)
			if l1.Lease != 1 || l2.Lease != 2 {
				t.Fatalf("granted %d and %d, want 1 and 2", l1.Lease, l2.Lease)
			}
			f.post("/v1/lease/release", map[string]any{"lease": l2.Lease}, nil, 200)
			if compact {
				f.srv.compact()
			}
			f2 := f.restart()
			var l3 leaseGrant
			f2.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &l3, 200)
			if l3.Lease != 3 {
				t.Fatalf("grant after restart issued lease %d, want 3", l3.Lease)
			}
		})
	}
	t.Run("promotion", func(t *testing.T) {
		f := newFixture(t, nil)
		var l1, l2 leaseGrant
		f.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &l1, 200)
		f.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &l2, 200)
		f.post("/v1/lease/release", map[string]any{"lease": l2.Lease}, nil, 200)

		sb := startFixture(t, config{dir: t.TempDir(), granularity: 2 * time.Millisecond,
			syncEvery: 1, follow: f.ts.URL, followWait: 50 * time.Millisecond})
		waitUntil(t, "standby replicates the release", func() bool {
			sb.srv.mu.Lock()
			defer sb.srv.mu.Unlock()
			_, live := sb.srv.state.Leases[l2.Lease]
			return sb.srv.state.NextLeaseID == 2 && !live
		})
		if _, err := sb.srv.promote(context.Background()); err != nil {
			t.Fatalf("promote: %v", err)
		}
		var l3 leaseGrant
		sb.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &l3, 200)
		if l3.Lease != 3 {
			t.Fatalf("grant after promotion issued lease %d, want 3", l3.Lease)
		}
		sb.post("/v1/lease/renew", map[string]any{"lease": l1.Lease, "ttl_ms": 60_000}, nil, 200)
		sb.post("/v1/lease/renew", map[string]any{"lease": l2.Lease, "ttl_ms": 60_000}, nil, 404)
	})
	t.Run("refused-grant", func(t *testing.T) {
		dir := t.TempDir()
		f := newFixture(t, func(c *config) { c.dir = dir })
		var l1 leaseGrant
		f.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &l1, 200)
		// A facility that started draining after the grant's check
		// refuses its watchdog: the grant is committed, but answered 503.
		f.srv.fac.Drain(context.Background(), timer.DrainCancelAll)
		f.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, nil, http.StatusServiceUnavailable)
		f2 := f.restart()
		var l3 leaseGrant
		f2.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &l3, 200)
		if l3.Lease != 3 {
			t.Fatalf("grant after a refused grant issued lease %d, want 3", l3.Lease)
		}
	})
}

// startFixture boots a server on cfg with an HTTP front, shut down at
// cleanup.
func startFixture(t *testing.T, cfg config) *fixture {
	t.Helper()
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	f := &fixture{t: t, srv: srv, ts: httptest.NewServer(srv.routes()), dir: cfg.dir}
	t.Cleanup(func() {
		f.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.shutdown(ctx)
	})
	return f
}

// restart shuts f's server down gracefully and boots a new one on the
// same directory and clock.
func (f *fixture) restart() *fixture {
	f.t.Helper()
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	f.srv.shutdown(ctx)
	cancel()
	return startFixture(f.t, config{dir: f.dir, granularity: 2 * time.Millisecond, syncEvery: 1, clk: f.srv.cfg.clk})
}

// waitUntil polls cond for up to 5 s of wall time.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// leaseLive reports whether the State holds lease id.
func (f *fixture) leaseLive(id uint64) bool {
	f.srv.mu.Lock()
	defer f.srv.mu.Unlock()
	_, live := f.srv.state.Leases[id]
	return live
}

// TestLeaseTTLClamping: a requested TTL is clamped to [1 s, 10 min], and
// none (or a non-positive one) takes -lease-ttl, on grant and renew alike.
func TestLeaseTTLClamping(t *testing.T) {
	epoch := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	f := newFixture(t, func(c *config) {
		c.clk = clock.NewFake(epoch)
		c.defaultTTL = 40 * time.Second
	})
	for _, tc := range []struct {
		ttlMS int64
		want  time.Duration
	}{
		{0, 40 * time.Second},
		{-5, 40 * time.Second},
		{1, time.Second},
		{90_000, 90 * time.Second},
		{int64(time.Hour / time.Millisecond), 10 * time.Minute},
	} {
		var lr leaseGrant
		f.post("/v1/lease", map[string]any{"ttl_ms": tc.ttlMS}, &lr, 200)
		if got := time.Unix(0, lr.ExpiryNS).Sub(epoch); got != tc.want {
			t.Errorf("grant ttl_ms=%d: TTL %v, want %v", tc.ttlMS, got, tc.want)
		}
		var rr leaseGrant
		f.post("/v1/lease/renew", map[string]any{"lease": lr.Lease, "ttl_ms": tc.ttlMS}, &rr, 200)
		if got := time.Unix(0, rr.ExpiryNS).Sub(epoch); got != tc.want {
			t.Errorf("renew ttl_ms=%d: TTL %v, want %v", tc.ttlMS, got, tc.want)
		}
	}
	// The zero config takes twd's own default.
	f2 := newFixture(t, func(c *config) { c.clk = clock.NewFake(epoch) })
	var lr leaseGrant
	f2.post("/v1/lease", map[string]any{}, &lr, 200)
	if got := time.Unix(0, lr.ExpiryNS).Sub(epoch); got != 30*time.Second {
		t.Errorf("default TTL %v, want 30s", got)
	}
}

// TestLeaseShutdownEndsNoLease: shutdown closes the lease table, which
// stops every watchdog but ends nothing — shutdown is not client death
// — so the lease is in the log the next boot reads.
func TestLeaseShutdownEndsNoLease(t *testing.T) {
	fc := clock.NewFake(time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC))
	f := newFixture(t, func(c *config) { c.clk = fc })
	var lr leaseGrant
	f.post("/v1/lease", map[string]any{"ttl_ms": 1000}, &lr, 200)
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	f.srv.shutdown(ctx)
	cancel()
	fc.Advance(5 * time.Second)
	if !f.leaseLive(lr.Lease) || f.srv.leasesExpired.Load() != 0 {
		t.Fatal("shutdown (or a watchdog after it) ended the lease")
	}
	_, rec, err := wal.Open(f.dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, live := rec.State.Leases[lr.Lease]; !live {
		t.Fatal("the log lost the lease at shutdown")
	}
}

// TestLeaseRenewHammer races four heartbeat goroutines against the
// watchdog on twd's fake clock; under -race this is the ordering torture
// test of renew (a State transition) against the watchdog's check and
// chase. The clock advances 100 ms once all four renewers renewed in the
// round, while the next round's renewals race that advance and the
// driver's firings. The 1 s lease must stay alive while heartbeats flow
// and expire exactly once after they stop.
func TestLeaseRenewHammer(t *testing.T) {
	const renewers, rounds = 4, 60
	fc := clock.NewFake(time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC))
	f := newFixture(t, func(c *config) { c.clk = fc })
	var lr leaseGrant
	f.post("/v1/lease", map[string]any{"ttl_ms": 1000}, &lr, 200)
	body := fmt.Sprintf(`{"lease":%d,"ttl_ms":1000}`, lr.Lease)
	var failed atomic.Int64
	var wg, renewed sync.WaitGroup
	turns := make([]chan struct{}, renewers) // one token per round each
	for g := range turns {
		turns[g] = make(chan struct{}, 1)
		wg.Add(1)
		go func(turn <-chan struct{}) {
			defer wg.Done()
			for range turn {
				rec := httptest.NewRecorder()
				f.srv.handleLeaseRenew(rec, httptest.NewRequest(http.MethodPost, "/v1/lease/renew", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					failed.Add(1)
				}
				renewed.Done()
			}
		}(turns[g])
	}
	release := func() {
		renewed.Add(renewers)
		for _, turn := range turns {
			turn <- struct{}{}
		}
	}
	release()
	for r := 0; r < rounds; r++ {
		renewed.Wait()
		if r+1 < rounds {
			release() // the next round races this advance and the driver
		}
		fc.Advance(100 * time.Millisecond)
		if failed.Load() != 0 || f.srv.leasesExpired.Load() != 0 {
			t.Fatalf("round %d: %d renewals refused, %d expiries while heartbeats flowed",
				r, failed.Load(), f.srv.leasesExpired.Load())
		}
	}
	for _, turn := range turns {
		close(turn)
	}
	wg.Wait()
	for i := 0; i < 30; i++ {
		fc.Advance(100 * time.Millisecond)
	}
	waitUntil(t, "the lease expires", func() bool { return !f.leaseLive(lr.Lease) })
	if n := f.srv.leasesExpired.Load(); n != 1 {
		t.Fatalf("lease expired %d times after heartbeats stopped, want 1", n)
	}
	if n := f.srv.leasesRenewed.Load(); n != renewers*rounds {
		t.Fatalf("leases_renewed_total %d, want %d", n, renewers*rounds)
	}
}
