package timer

import (
	"sync"
	"time"

	"timingwheels/clock"
)

// Clock returns a clock.Clock backed by this runtime's timing wheel:
// Now reads the runtime's wall source, and After, AfterFunc, NewTimer,
// NewTicker, and Sleep all schedule on the wheel — durations round up
// to whole ticks, so deliveries land on tick boundaries and never
// before their deadline. Any code written against clock.Clock can be
// pointed at the facility this way, which is the tentpole round trip:
// the runtime consumes a Clock (WithClockSource) and provides one.
//
// Deliveries follow the runtime's rules, not the time package's: expiry
// actions run on the driver goroutine, and timers on a closed or
// draining runtime never fire — After
// channels from a closed runtime block forever and Sleep returns
// immediately rather than stranding the caller.
func (rt *Runtime) Clock() clock.Clock { return facilityClock{rt} }

// facilityClock adapts one Runtime to clock.Clock.
type facilityClock struct{ rt *Runtime }

func (c facilityClock) Now() time.Time                  { return c.rt.now() }
func (c facilityClock) Since(t time.Time) time.Duration { return c.rt.now().Sub(t) }
func (c facilityClock) After(d time.Duration) <-chan time.Time {
	ch, err := c.rt.After(d)
	if err != nil {
		// Closed runtime: a timer that will never fire. Never-delivering
		// beats nil only in that callers can still select on it safely.
		return make(chan time.Time)
	}
	return ch
}

// Sleep blocks until the wheel delivers, d from now. On a closed or
// draining runtime it returns immediately: blocking forever on a
// facility that has promised never to fire again helps nobody.
func (c facilityClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch, err := c.rt.After(d)
	if err != nil {
		return
	}
	<-ch
}

func (c facilityClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	ft := &facilityTimer{rt: c.rt, fn: fn}
	ft.arm(d)
	return ft
}

func (c facilityClock) NewTimer(d time.Duration) clock.Timer {
	// Built on the fn path, not the runtime's internal After channel: an
	// After *Timer recycles the moment it fires, but a clock.Timer must
	// stay re-armable (Reset) after firing, which fn timers are.
	ft := &facilityTimer{rt: c.rt, ch: make(chan time.Time, 1)}
	ft.fn = func() {
		select {
		case ft.ch <- c.rt.now():
		default:
		}
	}
	ft.arm(d)
	return ft
}

func (c facilityClock) NewTicker(d time.Duration) clock.Ticker {
	if d <= 0 {
		panic("timer: non-positive ticker period")
	}
	ft := &facilityTicker{rt: c.rt, ch: make(chan time.Time, 1), period: d}
	ft.start()
	return ft
}

// facilityTimer adapts the runtime's *Timer to clock.Timer, absorbing
// the free-list contract: a *Timer whose Stop returned true is recycled
// and must never be touched again, so the adapter drops it (t = nil)
// and Reset re-arms by scheduling afresh.
type facilityTimer struct {
	rt *Runtime
	ch chan time.Time // nil for AfterFunc-style timers
	fn func()

	mu sync.Mutex
	t  *Timer // nil when stopped-true or never armed (closed runtime)
}

// arm schedules the action; on a closed/draining runtime the timer is
// left inert (Stop reports false, C never delivers).
func (ft *facilityTimer) arm(d time.Duration) {
	t, err := ft.rt.AfterFunc(d, ft.fn)
	if err != nil {
		return
	}
	ft.mu.Lock()
	ft.t = t
	ft.mu.Unlock()
}

func (ft *facilityTimer) C() <-chan time.Time { return ft.ch }

func (ft *facilityTimer) Stop() bool {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if ft.t == nil {
		return false
	}
	if ft.t.Stop() {
		ft.t = nil // recycled: must not be touched again
		return true
	}
	// Already fired (or firing): the *Timer stays valid for Reset.
	return false
}

func (ft *facilityTimer) Reset(d time.Duration) bool {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if ft.t != nil {
		wasPending, err := ft.t.Reset(d)
		if err != nil {
			// Draining/closed: the re-arm was refused; the timer stays
			// with its old deadline (or dead), per the runtime's rules.
			return false
		}
		return wasPending
	}
	t, err := ft.rt.AfterFunc(d, ft.fn)
	if err != nil {
		return false
	}
	ft.t = t
	return false // was not pending: it had been stopped
}

// facilityTicker adapts the runtime's deadline-chained Ticker (Every) to
// clock.Ticker, delivering each firing's time on a buffered channel with
// the drop-don't-queue contract.
type facilityTicker struct {
	rt     *Runtime
	ch     chan time.Time
	period time.Duration

	mu sync.Mutex
	tk *Ticker // nil on a closed runtime
}

func (ft *facilityTicker) start() {
	tk, err := ft.rt.Every(ft.period, func() {
		select {
		case ft.ch <- ft.rt.now():
		default:
		}
	})
	if err != nil {
		return
	}
	ft.mu.Lock()
	ft.tk = tk
	ft.mu.Unlock()
}

func (ft *facilityTicker) C() <-chan time.Time { return ft.ch }

func (ft *facilityTicker) Stop() {
	ft.mu.Lock()
	tk := ft.tk
	ft.tk = nil
	ft.mu.Unlock()
	if tk != nil {
		tk.Stop()
	}
}

func (ft *facilityTicker) Reset(d time.Duration) {
	if d <= 0 {
		panic("timer: non-positive ticker period")
	}
	ft.Stop()
	ft.mu.Lock()
	ft.period = d
	ft.mu.Unlock()
	ft.start()
}

// Clock returns a clock.Clock backed by the sharded facility: Now reads
// shard 0's wall source (all shards share one clock source by
// construction), and each scheduling call lands on a shard round-robin,
// so independent sleepers and tickers spread their lock traffic.
func (s *Sharded) Clock() clock.Clock { return shardedClock{s} }

type shardedClock struct{ s *Sharded }

func (c shardedClock) Now() time.Time                  { return c.s.shards[0].rt.now() }
func (c shardedClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }
func (c shardedClock) Sleep(d time.Duration)           { facilityClock{c.s.pick()}.Sleep(d) }
func (c shardedClock) After(d time.Duration) <-chan time.Time {
	return facilityClock{c.s.pick()}.After(d)
}
func (c shardedClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	return facilityClock{c.s.pick()}.AfterFunc(d, fn)
}
func (c shardedClock) NewTimer(d time.Duration) clock.Timer {
	return facilityClock{c.s.pick()}.NewTimer(d)
}
func (c shardedClock) NewTicker(d time.Duration) clock.Ticker {
	return facilityClock{c.s.pick()}.NewTicker(d)
}
