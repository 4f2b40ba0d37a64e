package lease

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timingwheels/clock"
	"timingwheels/timer"
)

// fixture is a table on a manually driven runtime, with an owner that
// keeps the lease record the way cmd/twd does: an expiry per lease on
// the same clock.Fake the runtime reads, and an OnExpire hook that
// re-arms a renewed lease's watchdog and ends an expired one.
type fixture struct {
	clk *clock.Fake
	rt  *timer.Runtime
	tb  *Table

	mu      sync.Mutex
	expiry  map[uint64]time.Time // the owner's lease record
	expired map[uint64][]uint64  // owned timers of each ended lease
	calls   atomic.Uint64        // OnExpire calls
	fires   atomic.Uint64        // leases ended by their watchdog
	rearms  atomic.Uint64        // renewals chased
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	fx := &fixture{
		clk:     clock.NewFake(time.Unix(1_000_000, 0)),
		expiry:  map[uint64]time.Time{},
		expired: map[uint64][]uint64{},
	}
	fx.rt = timer.NewRuntime(
		timer.WithManualDriver(),
		timer.WithClockSource(fx.clk),
		timer.WithGranularity(time.Millisecond),
	)
	t.Cleanup(func() { fx.rt.Close() })
	fx.tb = NewTable(fx.rt, Config{OnExpire: fx.onExpire})
	return fx
}

// onExpire is the owner's hook: a lease it no longer holds is left
// alone, a renewed one is chased, an expired one ends with its timers.
func (fx *fixture) onExpire(id uint64) {
	fx.calls.Add(1)
	fx.mu.Lock()
	exp, live := fx.expiry[id]
	if !live {
		fx.mu.Unlock()
		return
	}
	if remain := exp.Sub(fx.clk.Now()); remain > 0 {
		fx.mu.Unlock()
		if fx.tb.Rearm(id, remain) {
			fx.rearms.Add(1)
		}
		return
	}
	delete(fx.expiry, id)
	timers, wd := fx.tb.Forget(id)
	fx.expired[id] = timers
	fx.mu.Unlock()
	wd.Stop()
	fx.fires.Add(1)
}

// watch records lease id expiring at now+d and arms its watchdog.
func (fx *fixture) watch(t *testing.T, id uint64, d time.Duration, timers ...uint64) {
	t.Helper()
	fx.mu.Lock()
	fx.expiry[id] = fx.clk.Now().Add(d)
	fx.mu.Unlock()
	if err := fx.tb.Watch(id, d, timers); err != nil {
		t.Fatal(err)
	}
}

// renew moves a live lease's recorded expiry to now+d; the watchdog is
// left alone.
func (fx *fixture) renew(id uint64, d time.Duration) {
	fx.mu.Lock()
	if _, live := fx.expiry[id]; live {
		fx.expiry[id] = fx.clk.Now().Add(d)
	}
	fx.mu.Unlock()
}

// step advances the shared clock and polls the runtime so due watchdogs
// fire.
func (fx *fixture) step(d time.Duration) {
	fx.clk.Advance(d)
	fx.rt.Poll()
}

func (fx *fixture) expiredTimers(id uint64) ([]uint64, bool) {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	ts, ok := fx.expired[id]
	return ts, ok
}

func (fx *fixture) watched(id uint64) bool {
	fx.tb.mu.Lock()
	defer fx.tb.mu.Unlock()
	_, ok := fx.tb.leases[id]
	return ok
}

// TestGrantExpiresWithOwnedTimers: a lease from Grant (the benchmark's
// path) is watched like any other: its watchdog fires at the TTL, and
// Forget hands over exactly the timers attached and not detached.
func TestGrantExpiresWithOwnedTimers(t *testing.T) {
	fx := newFixture(t)
	id, expiry, err := fx.tb.Grant(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !expiry.IsZero() {
		t.Fatalf("Grant returned expiry %v; the table keeps none", expiry)
	}
	fx.mu.Lock()
	fx.expiry[id] = fx.clk.Now().Add(50 * time.Millisecond)
	fx.mu.Unlock()
	if !fx.tb.Attach(id, 7) || !fx.tb.Attach(id, 3) || !fx.tb.Attach(id, 11) {
		t.Fatal("attach to live lease failed")
	}
	fx.tb.Detach(id, 11)

	fx.step(40 * time.Millisecond)
	if fx.calls.Load() != 0 {
		t.Fatal("watchdog fired before TTL")
	}
	fx.step(20 * time.Millisecond)
	ts, ok := fx.expiredTimers(id)
	if !ok {
		t.Fatal("lease did not expire after TTL")
	}
	if len(ts) != 2 || ts[0] != 3 || ts[1] != 7 {
		t.Fatalf("expired timer set = %v, want [3 7]", ts)
	}
	if fx.tb.Attach(id, 99) {
		t.Fatal("attach to expired lease succeeded")
	}
	if id2, _, _ := fx.tb.Grant(time.Second); id2 == id {
		t.Fatalf("Grant issued id %d twice", id)
	}
}

// TestRenewOutlivesWatchdog: a renewal moves only the owner's record;
// the watchdog armed for the old TTL fires, and the owner chases the
// new expiry by resetting that same timer in place, not by arming a
// new one.
func TestRenewOutlivesWatchdog(t *testing.T) {
	fx := newFixture(t)
	fx.watch(t, 1, 50*time.Millisecond)
	wd := fx.tb.leases[1].wd
	// Heartbeat at 30ms: expiry moves to 80ms without touching the timer.
	fx.step(30 * time.Millisecond)
	fx.renew(1, 50*time.Millisecond)
	// The watchdog fires at 50ms, sees the moved expiry, re-arms.
	fx.step(30 * time.Millisecond)
	if fx.fires.Load() != 0 {
		t.Fatal("renewed lease expired at the original TTL")
	}
	if fx.rearms.Load() != 1 {
		t.Fatalf("watchdog re-armed %d times, want 1", fx.rearms.Load())
	}
	if got := fx.tb.leases[1].wd; got != wd {
		t.Fatal("the chase armed a new watchdog instead of resetting the old one")
	}
	if started, _, _ := fx.rt.Stats(); started != 2 {
		t.Fatalf("runtime started %d lifecycles, want the arm and its one re-arm", started)
	}
	// No further heartbeats: the chased expiry (80ms) passes.
	fx.step(30 * time.Millisecond)
	if fx.fires.Load() != 1 {
		t.Fatalf("lease did not expire after renewal lapsed (fires=%d)", fx.fires.Load())
	}
	if fx.watched(1) {
		t.Fatal("expired lease still watched")
	}
}

// TestReleaseStopsWatchdog: Forget hands over the owned timers and the
// watchdog; once stopped it never fires, and a watchdog that fires
// after Forget without being stopped reaches nobody.
func TestReleaseStopsWatchdog(t *testing.T) {
	fx := newFixture(t)
	fx.watch(t, 1, 20*time.Millisecond)
	fx.tb.Attach(1, 42)
	ids, wd := fx.tb.Forget(1)
	if len(ids) != 1 || ids[0] != 42 || wd == nil {
		t.Fatalf("forget = %v, %v", ids, wd)
	}
	if !wd.Stop() {
		t.Fatal("watchdog was not pending at release")
	}
	fx.watch(t, 2, 20*time.Millisecond)
	if ids, wd := fx.tb.Forget(2); len(ids) != 0 || wd == nil {
		t.Fatalf("forget = %v, %v", ids, wd)
	}
	fx.step(50 * time.Millisecond)
	if fx.calls.Load() != 0 {
		t.Fatalf("OnExpire ran %d times for released leases", fx.calls.Load())
	}
	if ids, wd := fx.tb.Forget(1); ids != nil || wd != nil {
		t.Fatal("double release found the lease")
	}
	if started, expired, stopped := fx.rt.Stats(); started != 2 || expired != 1 || stopped != 1 {
		t.Fatalf("runtime stats %d/%d/%d, want 2 started, 1 fired, 1 stopped", started, expired, stopped)
	}
}

func TestRestorePastExpiryFiresImmediately(t *testing.T) {
	fx := newFixture(t)
	// A lease recovered from the WAL whose expiry passed while the
	// daemon was down: it must expire through the normal path.
	fx.watch(t, 77, -10*time.Second, 5, 6)
	fx.step(2 * time.Millisecond)
	ts, ok := fx.expiredTimers(77)
	if !ok || len(ts) != 2 {
		t.Fatalf("restored-expired lease: fired=%v timers=%v", ok, ts)
	}
}

func TestRestoreFutureExpiryLives(t *testing.T) {
	fx := newFixture(t)
	fx.watch(t, 5, 60*time.Millisecond, 9)
	fx.step(30 * time.Millisecond)
	if fx.calls.Load() != 0 {
		t.Fatal("restored lease's watchdog fired early")
	}
	if !fx.watched(5) {
		t.Fatal("restored lease not watched")
	}
	fx.step(40 * time.Millisecond)
	if ts, ok := fx.expiredTimers(5); !ok || len(ts) != 1 || ts[0] != 9 {
		t.Fatalf("restored lease expiry: fired=%v timers=%v, want [9]", ok, ts)
	}
}

func TestCloseStopsEverything(t *testing.T) {
	fx := newFixture(t)
	fx.watch(t, 1, 10*time.Millisecond)
	fx.tb.Close()
	fx.tb.Close() // a fenced daemon's shutdown closes the table again
	fx.step(50 * time.Millisecond)
	if fx.calls.Load() != 0 {
		t.Fatal("closed table ran a watchdog")
	}
	if started, _, stopped := fx.rt.Stats(); started != 1 || stopped != 1 {
		t.Fatalf("runtime started %d, stopped %d; Close must stop the watchdog", started, stopped)
	}
	if _, _, err := fx.tb.Grant(0); err != ErrClosed {
		t.Fatalf("grant after close: %v", err)
	}
	if err := fx.tb.Watch(9, 0, nil); err != ErrClosed {
		t.Fatalf("watch after close: %v", err)
	}
	if fx.tb.Rearm(1, time.Second) {
		t.Fatal("rearm after close succeeded")
	}
	// The index outlives Close: an admission in flight at shutdown still
	// attaches to its lease.
	if !fx.tb.Attach(1, 5) {
		t.Fatal("attach after close failed")
	}
	if ids, wd := fx.tb.Forget(1); len(ids) != 1 || wd != nil {
		t.Fatalf("forget after close = %v, %v; want [5] and no stopped watchdog", ids, wd)
	}
}

// TestRenewHammer races four heartbeat goroutines against watchdog
// firings; under -race this is the ordering torture test. Time is a
// clock.Fake shared by the owner and the runtime, and it advances 1 ms
// only after all four renewers have renewed in the current round, while
// the next round's renewals race that advance and its Poll. The 5 ms
// lease must stay alive while heartbeats flow, however the goroutines
// interleave, and expire exactly once after they stop.
func TestRenewHammer(t *testing.T) {
	const ttl, renewers, rounds = 5 * time.Millisecond, 4, 100
	fx := newFixture(t)
	fx.watch(t, 1, ttl)
	var wg, renewed sync.WaitGroup
	turns := make([]chan struct{}, renewers) // one token per round each
	for g := range turns {
		turns[g] = make(chan struct{}, 1)
		wg.Add(1)
		go func(turn <-chan struct{}) {
			defer wg.Done()
			for range turn {
				fx.renew(1, ttl)
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
			release() // the next round races this advance and Poll
		}
		fx.step(time.Millisecond)
		if fx.fires.Load() != 0 {
			t.Fatalf("lease expired at round %d while heartbeats flowed", r)
		}
	}
	for _, turn := range turns {
		close(turn)
	}
	wg.Wait()
	for i := 0; i < 4*int(ttl/time.Millisecond); i++ {
		fx.step(time.Millisecond)
	}
	if n := fx.fires.Load(); n != 1 {
		t.Fatalf("lease expired %d times after heartbeats stopped, want 1", n)
	}
	if fx.rearms.Load() == 0 {
		t.Fatal("the watchdog never chased a renewal")
	}
	// A fired timer's Reset starts a new lifecycle: one per chase.
	if started, _, _ := fx.rt.Stats(); started != 1+fx.rearms.Load() {
		t.Fatalf("runtime started %d lifecycles for %d chases; only the watchdog arms", started, fx.rearms.Load())
	}
}

// TestRestorePastExpiryFiresExactlyOnce: a lease restored already past
// its TTL — a client that died while the daemon was down — must expire
// through OnExpire exactly once, no matter how long the clock keeps
// running afterwards, and must be fully dead to every other verb. This
// is the contract a promoted standby's replay would lean on had it not
// collected such a lease itself.
func TestRestorePastExpiryFiresExactlyOnce(t *testing.T) {
	fx := newFixture(t)
	fx.watch(t, 41, -30*time.Second, 11, 12, 13)
	fx.step(2 * time.Millisecond)
	if got := fx.fires.Load(); got != 1 {
		t.Fatalf("OnExpire fired %d times, want exactly 1", got)
	}
	ts, _ := fx.expiredTimers(41)
	if len(ts) != 3 {
		t.Fatalf("expiry delivered %d owned timers, want 3", len(ts))
	}

	// Keep the world turning: repeated polls and long advances must not
	// re-deliver the expiry.
	for i := 0; i < 5; i++ {
		fx.step(time.Second)
	}
	if got := fx.calls.Load(); got != 1 {
		t.Fatalf("OnExpire re-fired: %d total deliveries", got)
	}

	// The dead lease is dead to every verb.
	if fx.watched(41) {
		t.Fatal("expired restored lease still watched")
	}
	if fx.tb.Rearm(41, time.Second) {
		t.Fatal("Rearm on an expired restored lease succeeded")
	}
	if fx.tb.Attach(41, 99) {
		t.Fatal("Attach on an expired restored lease succeeded")
	}
}
