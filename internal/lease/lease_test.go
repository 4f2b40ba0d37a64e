package lease

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timingwheels/clock"
	"timingwheels/timer"
)

// fakeClock is a mutex-guarded manual clock shared by the runtime and
// the table so tests are fully deterministic.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

type fixture struct {
	clk *fakeClock
	rt  *timer.Runtime
	tb  *Table

	mu      sync.Mutex
	expired map[uint64][]uint64
	fires   atomic.Uint64
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	fx := &fixture{clk: newFakeClock(), expired: map[uint64][]uint64{}}
	fx.rt = timer.NewRuntime(
		timer.WithManualDriver(),
		timer.WithNowFunc(fx.clk.Now),
		timer.WithGranularity(time.Millisecond),
	)
	t.Cleanup(func() { fx.rt.Close() })
	fx.tb = NewTable(fx.rt, Config{
		DefaultTTL: 100 * time.Millisecond,
		MinTTL:     time.Millisecond,
		Now:        fx.clk.Now,
		OnExpire: func(id uint64, timers []uint64) {
			fx.mu.Lock()
			fx.expired[id] = timers
			fx.mu.Unlock()
			fx.fires.Add(1)
		},
	})
	return fx
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

func TestGrantExpiresWithOwnedTimers(t *testing.T) {
	fx := newFixture(t)
	id, expiry, err := fx.tb.Grant(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if want := fx.clk.Now().Add(50 * time.Millisecond); !expiry.Equal(want) {
		t.Fatalf("expiry %v, want %v", expiry, want)
	}
	if !fx.tb.Attach(id, 7) || !fx.tb.Attach(id, 3) || !fx.tb.Attach(id, 11) {
		t.Fatal("attach to live lease failed")
	}
	fx.tb.Detach(id, 11)

	fx.step(40 * time.Millisecond)
	if fx.fires.Load() != 0 {
		t.Fatal("expired before TTL")
	}
	fx.step(20 * time.Millisecond)
	ts, ok := fx.expiredTimers(id)
	if !ok {
		t.Fatal("lease did not expire after TTL")
	}
	if len(ts) != 2 || ts[0] != 3 || ts[1] != 7 {
		t.Fatalf("expired timer set = %v, want [3 7]", ts)
	}
	st := fx.tb.Stats()
	if st.Active != 0 || st.Granted != 1 || st.Expired != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if fx.tb.Attach(id, 99) {
		t.Fatal("attach to expired lease succeeded")
	}
}

func TestRenewOutlivesWatchdog(t *testing.T) {
	fx := newFixture(t)
	id, _, err := fx.tb.Grant(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Heartbeat at 30ms: expiry moves without touching the armed timer.
	fx.step(30 * time.Millisecond)
	if _, ok := fx.tb.Renew(id, 50*time.Millisecond); !ok {
		t.Fatal("renew of live lease failed")
	}
	// Original watchdog fires at 50ms, sees the moved expiry, re-arms.
	fx.step(30 * time.Millisecond)
	if fx.fires.Load() != 0 {
		t.Fatal("renewed lease expired at the original TTL")
	}
	// No further heartbeats: the chased expiry (80ms) passes.
	fx.step(30 * time.Millisecond)
	if fx.fires.Load() != 1 {
		t.Fatalf("lease did not expire after renewal lapsed (fires=%d)", fx.fires.Load())
	}
	if st := fx.tb.Stats(); st.Renewed != 1 || st.Expired != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReleaseStopsWatchdog(t *testing.T) {
	fx := newFixture(t)
	id, _, err := fx.tb.Grant(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fx.tb.Attach(id, 42)
	ids, ok := fx.tb.Release(id)
	if !ok || len(ids) != 1 || ids[0] != 42 {
		t.Fatalf("release = %v, %v", ids, ok)
	}
	fx.step(50 * time.Millisecond)
	if fx.fires.Load() != 0 {
		t.Fatal("released lease still expired")
	}
	if st := fx.tb.Stats(); st.Released != 1 || st.Active != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if _, ok := fx.tb.Release(id); ok {
		t.Fatal("double release succeeded")
	}
}

func TestRestorePastExpiryFiresImmediately(t *testing.T) {
	fx := newFixture(t)
	// A lease recovered from the WAL whose expiry passed while the
	// daemon was down: it must expire through the normal path.
	gone := fx.clk.Now().Add(-10 * time.Second)
	if err := fx.tb.Restore(77, gone, []uint64{5, 6}); err != nil {
		t.Fatal(err)
	}
	fx.step(2 * time.Millisecond)
	ts, ok := fx.expiredTimers(77)
	if !ok || len(ts) != 2 {
		t.Fatalf("restored-expired lease: fired=%v timers=%v", ok, ts)
	}
	// nextID advanced past the restored ID.
	id, _, err := fx.tb.Grant(0)
	if err != nil {
		t.Fatal(err)
	}
	if id <= 77 {
		t.Fatalf("grant after Restore(77) returned id %d", id)
	}
}

func TestRestoreFutureExpiryLives(t *testing.T) {
	fx := newFixture(t)
	if err := fx.tb.Restore(5, fx.clk.Now().Add(60*time.Millisecond), []uint64{9}); err != nil {
		t.Fatal(err)
	}
	fx.step(30 * time.Millisecond)
	if fx.fires.Load() != 0 {
		t.Fatal("restored lease expired early")
	}
	if _, live := fx.tb.Expiry(5); !live {
		t.Fatal("restored lease not live")
	}
	fx.step(40 * time.Millisecond)
	if ts, ok := fx.expiredTimers(5); !ok || len(ts) != 1 || ts[0] != 9 {
		t.Fatalf("restored lease expiry: fired=%v timers=%v, want [9]", ok, ts)
	}
}

func TestCloseStopsEverything(t *testing.T) {
	fx := newFixture(t)
	if _, _, err := fx.tb.Grant(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	fx.tb.Close()
	fx.step(50 * time.Millisecond)
	if fx.fires.Load() != 0 {
		t.Fatal("closed table expired a lease")
	}
	if _, _, err := fx.tb.Grant(0); err != ErrClosed {
		t.Fatalf("grant after close: %v", err)
	}
	if err := fx.tb.Restore(9, fx.clk.Now(), nil); err != ErrClosed {
		t.Fatalf("restore after close: %v", err)
	}
	if _, ok := fx.tb.Renew(1, 0); ok {
		t.Fatal("renew after close succeeded")
	}
}

func TestTTLClamping(t *testing.T) {
	clk := newFakeClock()
	rt := timer.NewRuntime(timer.WithManualDriver(), timer.WithNowFunc(clk.Now),
		timer.WithGranularity(time.Millisecond))
	defer rt.Close()
	tb := NewTable(rt, Config{
		DefaultTTL: 40 * time.Millisecond,
		MinTTL:     10 * time.Millisecond,
		MaxTTL:     100 * time.Millisecond,
		Now:        clk.Now,
	})
	_, exp, err := tb.Grant(0) // default
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.Sub(clk.Now()); got != 40*time.Millisecond {
		t.Fatalf("default TTL = %v", got)
	}
	_, exp, _ = tb.Grant(time.Millisecond) // clamped up
	if got := exp.Sub(clk.Now()); got != 10*time.Millisecond {
		t.Fatalf("min clamp = %v", got)
	}
	_, exp, _ = tb.Grant(time.Hour) // clamped down
	if got := exp.Sub(clk.Now()); got != 100*time.Millisecond {
		t.Fatalf("max clamp = %v", got)
	}
}

// TestRenewHammer races four heartbeat goroutines against watchdog
// firings; under -race this is the ordering torture test. Time is a
// clock.Fake shared by the table and the runtime, and it advances 1 ms
// only after all four renewers have renewed in the current round, while
// the next round's renewals race that advance and its Poll. The 5 ms
// lease must stay alive while heartbeats flow, however the goroutines
// interleave, and expire exactly once after they stop.
func TestRenewHammer(t *testing.T) {
	const ttl, renewers, rounds = 5 * time.Millisecond, 4, 100
	fc := clock.NewFake(time.Time{})
	rt := timer.NewRuntime(
		timer.WithClockSource(fc),
		timer.WithManualDriver(),
		timer.WithGranularity(time.Millisecond),
	)
	defer rt.Close()
	var expirals atomic.Uint64
	tb := NewTable(rt, Config{
		MinTTL: time.Millisecond,
		Now:    fc.Now,
		OnExpire: func(uint64, []uint64) {
			expirals.Add(1)
		},
	})
	id, _, err := tb.Grant(ttl)
	if err != nil {
		t.Fatal(err)
	}
	var wg, renewed sync.WaitGroup
	turns := make([]chan struct{}, renewers) // one token per round each
	for g := range turns {
		turns[g] = make(chan struct{}, 1)
		wg.Add(1)
		go func(turn <-chan struct{}) {
			defer wg.Done()
			for range turn {
				tb.Renew(id, ttl)
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
		fc.Advance(time.Millisecond)
		rt.Poll()
		if expirals.Load() != 0 {
			t.Fatalf("lease expired at round %d while heartbeats flowed", r)
		}
	}
	for _, turn := range turns {
		close(turn)
	}
	wg.Wait()
	for i := 0; i < 4*int(ttl/time.Millisecond); i++ {
		fc.Advance(time.Millisecond)
		rt.Poll()
	}
	if n := expirals.Load(); n != 1 {
		t.Fatalf("lease expired %d times after heartbeats stopped, want 1", n)
	}
	if st := tb.Stats(); st.Active != 0 || st.Expired != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRestorePastExpiryFiresExactlyOnce: a lease restored already past
// its TTL — a client that died while the daemon was down — must expire
// through OnExpire exactly once, no matter how long the clock keeps
// running afterwards, and must be fully dead to every other verb. This
// is the contract twd's boot (and a promoted standby's replay) leans
// on for its eager dead-client GC.
func TestRestorePastExpiryFiresExactlyOnce(t *testing.T) {
	fx := newFixture(t)
	gone := fx.clk.Now().Add(-30 * time.Second)
	if err := fx.tb.Restore(41, gone, []uint64{11, 12, 13}); err != nil {
		t.Fatal(err)
	}
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
	if got := fx.fires.Load(); got != 1 {
		t.Fatalf("OnExpire re-fired: %d total deliveries", got)
	}

	// The dead lease is dead to every verb.
	if _, live := fx.tb.Expiry(41); live {
		t.Fatal("expired restored lease still reports alive")
	}
	if _, ok := fx.tb.Renew(41, 0); ok {
		t.Fatal("Renew on an expired restored lease succeeded")
	}
	if fx.tb.Attach(41, 99) {
		t.Fatal("Attach on an expired restored lease succeeded")
	}
	if st := fx.tb.Stats(); st.Active != 0 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want 0 active / 1 expired", st)
	}
}
