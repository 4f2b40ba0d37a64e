package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"timingwheels/clock"
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
// compaction before the restart must not lose the high-water either.
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
			f.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			f.srv.shutdown(ctx)
			cancel()

			srv2, err := newServer(config{dir: dir, granularity: 2 * time.Millisecond, syncEvery: 1})
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
			var l3 leaseGrant
			f2.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &l3, 200)
			if l3.Lease != 3 {
				t.Fatalf("grant after restart issued lease %d, want 3", l3.Lease)
			}
		})
	}
}
