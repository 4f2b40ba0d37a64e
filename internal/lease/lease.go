// Package lease tracks client sessions for cmd/twd: heartbeat-renewed
// TTL leases whose watchdogs are the timer runtime's own timers, so
// liveness tracking rides the facility it protects (the deployment
// shape Lawn, arXiv:1906.10860, calls session expiry). A client that
// stops heartbeating has its lease expired and every timer it owns
// reported for garbage collection; the daemon logs the expiry and the
// cancellations to the WAL so a restart reconstructs the same view.
//
// Renewal never touches the armed watchdog timer: Renew only moves the
// lease's expiry instant under the table lock, and the watchdog — when
// it eventually fires — re-arms itself for the remainder. A chatty
// client therefore costs one map write per heartbeat, not a
// stop/re-schedule round trip through the wheel.
package lease

import (
	"errors"
	"sort"
	"sync"
	"time"

	"timingwheels/timer"
)

// Scheduler is the timer-facility surface the table needs; both
// *timer.Runtime and *timer.Sharded satisfy it.
type Scheduler interface {
	AfterFunc(d time.Duration, fn func(), opts ...timer.ScheduleOption) (*timer.Timer, error)
}

// ErrClosed reports an operation on a closed table.
var ErrClosed = errors.New("lease: table is closed")

// Config tunes a Table. The zero value is usable: 30s default TTL,
// clamped to [1s, 10m], no expiry callback.
type Config struct {
	// DefaultTTL applies when Grant or Renew is called with ttl <= 0.
	DefaultTTL time.Duration
	// MinTTL and MaxTTL clamp every requested TTL.
	MinTTL, MaxTTL time.Duration
	// OnExpire runs (outside the table lock, on the runtime's delivery
	// goroutine) when a lease expires without renewal. timers is the
	// sorted set of timer IDs the lease owned at expiry.
	OnExpire func(id uint64, timers []uint64)
	// Now overrides the clock; nil means time.Now. Tests drive it.
	Now func() time.Time
}

func (c *Config) norm() {
	if c.DefaultTTL <= 0 {
		c.DefaultTTL = 30 * time.Second
	}
	if c.MinTTL <= 0 {
		c.MinTTL = time.Second
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = 10 * time.Minute
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

func (c *Config) clamp(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		ttl = c.DefaultTTL
	}
	if ttl < c.MinTTL {
		ttl = c.MinTTL
	}
	if ttl > c.MaxTTL {
		ttl = c.MaxTTL
	}
	return ttl
}

// lease is one session. watching reports an armed watchdog; a lease
// whose watchdog could not be re-armed (runtime draining) keeps its
// state and is re-watched on the next Renew.
type lease struct {
	expiry   time.Time
	timers   map[uint64]struct{}
	wd       *timer.Timer
	watching bool
}

// Stats is the table's counter snapshot.
type Stats struct {
	Active                              int
	Granted, Renewed, Expired, Released uint64
}

// Table is the lease registry. All methods are safe for concurrent use.
type Table struct {
	sched Scheduler
	cfg   Config

	mu     sync.Mutex
	leases map[uint64]*lease
	nextID uint64
	closed bool

	granted, renewed, expired, released uint64
}

// NewTable builds a table whose watchdogs schedule on sched.
func NewTable(sched Scheduler, cfg Config) *Table {
	cfg.norm()
	return &Table{sched: sched, cfg: cfg, leases: make(map[uint64]*lease)}
}

// Grant creates a lease with the clamped ttl and returns its ID and
// expiry instant.
func (tb *Table) Grant(ttl time.Duration) (uint64, time.Time, error) {
	ttl = tb.cfg.clamp(ttl)
	tb.mu.Lock()
	if tb.closed {
		tb.mu.Unlock()
		return 0, time.Time{}, ErrClosed
	}
	tb.nextID++
	id := tb.nextID
	l := &lease{expiry: tb.cfg.Now().Add(ttl), timers: make(map[uint64]struct{})}
	tb.leases[id] = l
	tb.granted++
	tb.mu.Unlock()

	if err := tb.watch(id, l, ttl); err != nil {
		tb.mu.Lock()
		delete(tb.leases, id)
		tb.granted--
		tb.mu.Unlock()
		return 0, time.Time{}, err
	}
	return id, l.expiry, nil
}

// Restore recreates a lease recovered from the WAL with its original ID
// and absolute expiry (which may already be in the past — the watchdog
// then fires on the next tick and expires it through the normal path,
// logging the expiry exactly as if the daemon had stayed up). nextID
// advances past id so future grants never collide.
func (tb *Table) Restore(id uint64, expiry time.Time, timers []uint64) error {
	tb.mu.Lock()
	if tb.closed {
		tb.mu.Unlock()
		return ErrClosed
	}
	if id > tb.nextID {
		tb.nextID = id
	}
	l := &lease{expiry: expiry, timers: make(map[uint64]struct{}, len(timers))}
	for _, t := range timers {
		l.timers[t] = struct{}{}
	}
	tb.leases[id] = l
	tb.granted++
	remain := expiry.Sub(tb.cfg.Now())
	tb.mu.Unlock()
	return tb.watch(id, l, remain)
}

// ReserveIDs makes every future grant issue an ID above hw: the
// daemon's durable lease-ID high-water, which covers leases that were
// released or expired and so are not restored. Restore alone only
// advances past the live leases.
func (tb *Table) ReserveIDs(hw uint64) {
	tb.mu.Lock()
	tb.nextID = max(tb.nextID, hw)
	tb.mu.Unlock()
}

// watch arms (or re-arms) the lease's watchdog. Called without tb.mu.
func (tb *Table) watch(id uint64, l *lease, d time.Duration) error {
	if d < 0 {
		d = 0
	}
	wd, err := tb.sched.AfterFunc(d, func() { tb.watchdog(id) })
	tb.mu.Lock()
	if err == nil && tb.leases[id] == l {
		l.wd = wd
		l.watching = true
	}
	tb.mu.Unlock()
	return err
}

// watchdog runs when a lease's armed TTL elapses. If a Renew moved the
// expiry past now, it re-arms for the remainder; otherwise the lease
// and its timer set leave the table and OnExpire is told.
func (tb *Table) watchdog(id uint64) {
	tb.mu.Lock()
	l, ok := tb.leases[id]
	if !ok || tb.closed {
		tb.mu.Unlock()
		return
	}
	now := tb.cfg.Now()
	if remain := l.expiry.Sub(now); remain > 0 {
		// Renewed since arming: chase the new expiry. watching stays
		// true across the re-arm so a concurrent Renew cannot double-arm;
		// a failed re-arm (runtime draining) leaves the lease unwatched
		// and the next Renew retries.
		tb.mu.Unlock()
		if err := tb.watch(id, l, remain); err != nil {
			tb.mu.Lock()
			if tb.leases[id] == l {
				l.watching = false
			}
			tb.mu.Unlock()
		}
		return
	}
	delete(tb.leases, id)
	tb.expired++
	ids := sortedIDs(l.timers)
	cb := tb.cfg.OnExpire
	tb.mu.Unlock()
	if cb != nil {
		cb(id, ids)
	}
}

// Renew moves the lease's expiry to now + clamped ttl. It returns the
// new expiry and whether the lease was alive. The armed watchdog is
// left alone — it discovers the new expiry when it fires.
func (tb *Table) Renew(id uint64, ttl time.Duration) (time.Time, bool) {
	ttl = tb.cfg.clamp(ttl)
	tb.mu.Lock()
	l, ok := tb.leases[id]
	if !ok || tb.closed {
		tb.mu.Unlock()
		return time.Time{}, false
	}
	l.expiry = tb.cfg.Now().Add(ttl)
	tb.renewed++
	rearm := !l.watching
	if rearm {
		l.watching = true // reserve; watch() confirms or the arm error path clears
	}
	expiry := l.expiry
	tb.mu.Unlock()
	if rearm {
		if err := tb.watch(id, l, ttl); err != nil {
			tb.mu.Lock()
			if tb.leases[id] == l {
				l.watching = false
			}
			tb.mu.Unlock()
		}
	}
	return expiry, true
}

// RevertExpiry undoes a renewal whose durability failed: if the lease
// is alive and its expiry is still cur — no later renewal interleaved —
// it moves back to old, so the in-memory lease agrees with what the log
// will replay. It reports whether the revert applied. The watchdog
// needs no adjustment: it re-reads the expiry when it fires.
func (tb *Table) RevertExpiry(id uint64, cur, old time.Time) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	l, ok := tb.leases[id]
	if !ok || !l.expiry.Equal(cur) {
		return false
	}
	l.expiry = old
	return true
}

// Release ends a lease deliberately (client shutdown) and returns the
// sorted timer IDs it owned; the caller decides their fate. The armed
// watchdog is stopped best-effort; a missed stop finds no lease and
// no-ops.
func (tb *Table) Release(id uint64) ([]uint64, bool) {
	tb.mu.Lock()
	l, ok := tb.leases[id]
	if !ok {
		tb.mu.Unlock()
		return nil, false
	}
	delete(tb.leases, id)
	tb.released++
	ids := sortedIDs(l.timers)
	wd := l.wd
	tb.mu.Unlock()
	if wd != nil {
		wd.Stop()
	}
	return ids, true
}

// Attach records that the lease owns timer tid. It reports whether the
// lease was alive; a false return means the caller should treat the
// session as gone.
func (tb *Table) Attach(id, tid uint64) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	l, ok := tb.leases[id]
	if !ok {
		return false
	}
	l.timers[tid] = struct{}{}
	return true
}

// Detach forgets timer tid (fired or cancelled) from the lease.
func (tb *Table) Detach(id, tid uint64) {
	tb.mu.Lock()
	if l, ok := tb.leases[id]; ok {
		delete(l.timers, tid)
	}
	tb.mu.Unlock()
}

// Expiry returns the lease's current expiry instant.
func (tb *Table) Expiry(id uint64) (time.Time, bool) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	l, ok := tb.leases[id]
	if !ok {
		return time.Time{}, false
	}
	return l.expiry, true
}

// Stats returns the table's counter snapshot.
func (tb *Table) Stats() Stats {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return Stats{
		Active:   len(tb.leases),
		Granted:  tb.granted,
		Renewed:  tb.renewed,
		Expired:  tb.expired,
		Released: tb.released,
	}
}

// Close stops the table: watchdogs that fire afterwards no-op, and
// every mutating call fails. It does not expire anything — shutdown is
// not client death.
func (tb *Table) Close() {
	tb.mu.Lock()
	tb.closed = true
	wds := make([]*timer.Timer, 0, len(tb.leases))
	for _, l := range tb.leases {
		if l.wd != nil {
			wds = append(wds, l.wd)
		}
	}
	tb.mu.Unlock()
	for _, wd := range wds {
		wd.Stop()
	}
}

func sortedIDs(m map[uint64]struct{}) []uint64 {
	ids := make([]uint64, 0, len(m))
	for t := range m {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
