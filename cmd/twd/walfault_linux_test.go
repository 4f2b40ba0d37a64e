//go:build linux

package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"timingwheels/clock"
)

// failWAL makes every later write to s's WAL segment fail: it points
// the segment's file descriptor at /dev/full, so the next Commit's
// flush fails with ENOSPC and fails the log, while the record appended
// just before it is already in the State. It skips the test where
// /proc/self/fd or /dev/full is missing.
func failWAL(t *testing.T, f *fixture) {
	t.Helper()
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil {
			continue
		}
		if ok, _ := filepath.Match(filepath.Join(f.dir, "wal-*.log"), target); !ok {
			continue
		}
		fd, _ := strconv.Atoi(e.Name())
		if err := syscall.Dup3(int(full.Fd()), fd, 0); err != nil {
			t.Fatalf("dup3: %v", err)
		}
		return
	}
	t.Skip("WAL segment descriptor not found")
}

// TestLeaseUndoOnCommitFailure: a grant or renewal whose commit fails
// answers 503 and is undone in the State alone — the lease package is
// never called before the commit, so there is nothing else to undo. A
// failed grant leaves no lease, no watchdog and the granted count as it
// was, but keeps its ID burnt (its record may be on disk); a failed
// renewal leaves the old expiry.
func TestLeaseUndoOnCommitFailure(t *testing.T) {
	epoch := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	setup := func(t *testing.T) (*fixture, *clock.Fake, leaseGrant) {
		fc := clock.NewFake(epoch)
		f := newFixture(t, func(c *config) { c.clk = fc })
		var lr leaseGrant
		f.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, &lr, 200)
		failWAL(t, f)
		return f, fc, lr
	}
	t.Run("grant", func(t *testing.T) {
		f, _, _ := setup(t)
		f.post("/v1/lease", map[string]any{"ttl_ms": 60_000}, nil, http.StatusServiceUnavailable)
		f.srv.mu.Lock()
		_, live := f.srv.state.Leases[2]
		granted, next := f.srv.state.LeasesGranted, f.srv.state.NextLeaseID
		f.srv.mu.Unlock()
		if live || granted != 1 || next != 2 {
			t.Fatalf("after a failed grant: lease 2 live=%v, granted %d, NextLeaseID %d; want false, 1, 2", live, granted, next)
		}
		if f.srv.leases.Attach(2, 99) {
			t.Fatal("a failed grant left lease 2 watched")
		}
		if n := f.srv.fac.Outstanding(); n != 1 {
			t.Fatalf("facility holds %d timers, want lease 1's watchdog alone", n)
		}
		if !f.srv.log.Stats().Failed {
			t.Fatal("the injected fault did not fail the log")
		}
	})
	t.Run("renew", func(t *testing.T) {
		f, fc, lr := setup(t)
		fc.Advance(time.Second)
		f.post("/v1/lease/renew", map[string]any{"lease": lr.Lease, "ttl_ms": 60_000}, nil, http.StatusServiceUnavailable)
		f.srv.mu.Lock()
		ls, live := f.srv.state.Leases[lr.Lease]
		f.srv.mu.Unlock()
		if !live || ls.Expiry != lr.ExpiryNS {
			t.Fatalf("after a failed renewal: live=%v expiry %d, want the granted %d", live, ls.Expiry, lr.ExpiryNS)
		}
		if n := f.srv.leasesRenewed.Load(); n != 0 {
			t.Fatalf("leases_renewed_total %d after a failed renewal, want 0", n)
		}
	})
}
