// Package lease keeps what cmd/twd's lease record cannot: one watchdog
// per client session, armed as the timer runtime's own timer, so
// liveness tracking rides the facility it protects (the deployment
// shape Lawn, arXiv:1906.10860, calls session expiry), and the index of
// the timers each session owns.
//
// The lease itself — its ID and its expiry — lives with the daemon's
// other durable state; this table holds no clock and no expiry. A
// watchdog only says "look now": OnExpire reads the owner's record and
// either ends the lease (Forget) or, if a renewal moved the expiry on,
// re-arms the same watchdog for the remainder in place (Rearm). A
// chatty client therefore costs the owner one record update per
// heartbeat, not a stop/re-schedule round trip through the wheel.
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

// Config tunes a Table. The zero value is usable: watchdogs fire into
// nothing.
type Config struct {
	// OnExpire runs on the runtime's delivery goroutine, outside the
	// table lock, when lease id's watchdog fires. The owner decides what
	// the firing means: Rearm if the lease was renewed since the arm,
	// Forget if it expired.
	OnExpire func(id uint64)
}

// lease is one watched session: its owned timers and its watchdog.
type lease struct {
	timers map[uint64]struct{}
	wd     *timer.Timer
}

// Table is the watchdog set and owned-timer index. All methods are safe
// for concurrent use. The table lock is held across the facility call
// that arms or re-arms a watchdog, so a watchdog is never seen before
// its handle is recorded, and never re-armed after Forget handed it
// out.
type Table struct {
	sched    Scheduler
	onExpire func(id uint64)

	mu     sync.Mutex
	leases map[uint64]*lease
	closed bool
	// nextID numbers Grant's leases; see Grant.
	nextID uint64
}

// NewTable builds a table whose watchdogs schedule on sched.
func NewTable(sched Scheduler, cfg Config) *Table {
	return &Table{sched: sched, onExpire: cfg.OnExpire, leases: make(map[uint64]*lease)}
}

// Watch indexes lease id with the timers it owns and arms its watchdog
// to fire after d; d <= 0 (a lease recovered past its expiry) fires on
// the next tick.
func (tb *Table) Watch(id uint64, d time.Duration, timers []uint64) error {
	l := &lease{timers: make(map[uint64]struct{}, len(timers))}
	for _, t := range timers {
		l.timers[t] = struct{}{}
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.closed {
		return ErrClosed
	}
	wd, err := tb.sched.AfterFunc(max(d, 0), func() { tb.fire(id) })
	if err != nil {
		return err
	}
	l.wd = wd
	tb.leases[id] = l
	return nil
}

// Grant watches a lease under an ID of the table's own and returns it,
// with a zero expiry: the table keeps none. It is kept for the service
// benchmark's timer replay, which prices Attach and Detach on a table
// built this way; twd numbers its leases in its log and calls Watch.
// Delete it with the benchmark's next change.
func (tb *Table) Grant(ttl time.Duration) (uint64, time.Time, error) {
	tb.mu.Lock()
	tb.nextID++
	id := tb.nextID
	tb.mu.Unlock()
	return id, time.Time{}, tb.Watch(id, ttl, nil)
}

// fire is every watchdog's action: it hands a still-watched lease to
// OnExpire.
func (tb *Table) fire(id uint64) {
	tb.mu.Lock()
	_, ok := tb.leases[id]
	ok = ok && !tb.closed
	tb.mu.Unlock()
	if ok && tb.onExpire != nil {
		tb.onExpire(id)
	}
}

// Rearm re-arms lease id's watchdog in place to fire after d — the
// chase of a renewal, called from OnExpire. It reports false if the
// lease is not watched, the table is closed, or the runtime refused the
// reset (it is draining); the lease then goes unwatched until restart.
func (tb *Table) Rearm(id uint64, d time.Duration) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	l, ok := tb.leases[id]
	if !ok || tb.closed {
		return false
	}
	_, err := l.wd.Reset(max(d, 0))
	return err == nil
}

// Forget drops lease id from the table and returns the sorted IDs of
// the timers it owned and its watchdog, which the caller must Stop —
// outside any lock the timer runtime must not wait behind. A watchdog
// that fires before that Stop finds the lease gone and does nothing.
// Both results are empty for a lease the table does not hold, and the
// watchdog is nil once Close has stopped it.
func (tb *Table) Forget(id uint64) ([]uint64, *timer.Timer) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	l, ok := tb.leases[id]
	if !ok {
		return nil, nil
	}
	delete(tb.leases, id)
	ids := make([]uint64, 0, len(l.timers))
	for t := range l.timers {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, l.wd
}

// Attach records that the lease owns timer tid. It reports whether the
// table holds the lease; a false return means the caller should treat
// the session as gone.
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

// Close stops the table: every watchdog is stopped, later firings do
// nothing, Watch fails and Forget hands out no watchdog. It ends no
// lease, and the index keeps working — shutdown is not client death.
// Closing a closed table does nothing.
func (tb *Table) Close() {
	tb.mu.Lock()
	if tb.closed {
		tb.mu.Unlock()
		return
	}
	tb.closed = true
	wds := make([]*timer.Timer, 0, len(tb.leases))
	for _, l := range tb.leases {
		wds = append(wds, l.wd)
		l.wd = nil
	}
	tb.mu.Unlock()
	for _, wd := range wds {
		wd.Stop()
	}
}
