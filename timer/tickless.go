package timer

import (
	"fmt"
	"math"
	"time"

	"timingwheels/internal/core"
)

// WithTickless switches the runtime from periodic ticking to
// expiry-driven wakeups: instead of waking every granularity, the driver
// sleeps until the scheme's next event (or until an earlier timer is
// scheduled) — the section 3.2 optimization for hosts with hardware
// support for a single timer, where "the hardware intercepts all clock
// ticks and interrupts the host only when a timer actually expires".
//
// Tickless mode requires a scheme that can say when it next has work
// (core.NextExpirer): NewOrderedList and NewTree report the earliest
// expiry in O(1); NewWheel, NewHybridWheel and NewHierarchicalWheel
// answer with one occupancy-bitmap probe per wheel. The hierarchy's
// answer is a lower bound — the next tick at which it fires or
// cascades — so the driver may wake on a tick that only moves timers
// toward the finest wheel, then sleeps again. The hashed wheels cannot
// answer (their slots mix revolutions), and NewRuntime panics if the
// scheme offers no NextExpiry. The trade-off is the paper's: schemes
// buy silence between expiries with costlier starts, bounded ranges or
// cascades, where the plain hashed wheel pays O(1) per start plus a
// cheap wakeup per tick.
//
// The driver records the tick it is parked until, and an admission
// wakes it only when its deadline precedes that tick: a stream of
// timers later than the next event costs no wakeups, until (with
// WithIngress) it fills a quarter of the staging ring.
func WithTickless() RuntimeOption {
	return func(c *runtimeConfig) { c.tickless = true }
}

// nextExpirer mirrors core.NextExpirer for the runtime's use.
type nextExpirer = core.NextExpirer

// notParked is parkedUntil's value while the tickless driver is awake
// (or not yet started): every admission pokes until it parks again.
const notParked = math.MaxInt64

// ticklessLoop sleeps until the scheme's next event, a poke from an
// admission with an earlier deadline, or shutdown. maxIdle bounds the
// sleep when no timers are outstanding — and bounds every sleep, so a
// backward clock step (which inflates the computed wait) delays
// re-evaluation by at most maxIdle rather than parking the driver until
// the far future.
func (rt *Runtime) ticklessLoop() {
	defer close(rt.doneCh)
	const maxIdle = time.Minute
	// One wakeup timer reused across iterations (Stop-drain-Reset), from
	// the runtime's clock source so a Fake clock drives the sleeper too.
	wakeup := rt.clk.NewTimer(maxIdle)
	defer wakeup.Stop()
	for {
		rt.mu.Lock()
		if rt.closed {
			rt.mu.Unlock()
			return
		}
		// Awake until the new sleep is recorded: an ingress producer
		// that stages after the drain below must poke, since the sleep
		// it would otherwise be checked against is not computed yet.
		rt.parkedUntil.Store(notParked)
		// Staged admissions must be armed before the sleep is computed,
		// or an intent with an earlier deadline would be slept through.
		rt.drainIngressLocked()
		now := rt.now()
		wake := now
		// Mid catch-up after a clock jump, re-poll immediately; the
		// WithMaxCatchUp budget bounds each burst.
		if rt.behind.Load() == 0 {
			wake = now.Add(maxIdle)
			// Ticks so far out that tick*granularity would overflow a
			// Duration (TimeOf would wrap, yielding a negative wait and
			// a busy spin) keep the maxIdle nap.
			if when, ok := rt.fac.(nextExpirer).NextExpiry(); ok && int64(when) < int64(1<<62)/rt.granNS {
				// The expiry tick has elapsed once the tick boundary
				// after it begins: wake at the start of tick `when`.
				if target := rt.wall.TimeOf(int64(when)); target.Before(wake) {
					wake = target
				}
			}
			if wake.Before(now) {
				wake = now
			}
		}
		// The first tick that begins at or after the wakeup: a deadline
		// before it would be slept through, so its admission pokes.
		park := rt.wall.TicksAt(wake)
		if rt.wall.TimeOf(park).Before(wake) {
			park++
		}
		rt.parkedUntil.Store(park)
		rt.mu.Unlock()

		// Re-arm the shared timer. It is always in the fired-or-stopped
		// state here (every select arm below consumes or stops it), so
		// Stop+drain makes Reset race-free per the time.Timer contract.
		if !wakeup.Stop() {
			select {
			case <-wakeup.C():
			default:
			}
		}
		wakeup.Reset(wake.Sub(now))
		select {
		case <-rt.stopCh:
			return
		case <-rt.wake:
			// A timer with an earlier deadline was admitted while the
			// driver slept; loop to re-arm the sleep against it. The
			// admission is visible to the recompute above: a synchronous
			// one armed it under rt.mu before poking, and a staged one
			// pushed its intent before reading parkedUntil. The buffered
			// channel coalesces a burst of pokes into one recompute.
		case <-wakeup.C():
			rt.Poll()
		}
	}
}

// wakeFor pokes the tickless driver when an admission's deadline tick
// precedes the tick it is parked until; one call covers a batch, with
// the batch's earliest deadline. A buffered channel coalesces bursts.
// No-op on other drivers.
func (rt *Runtime) wakeFor(deadline int64) {
	if rt.wake == nil || deadline >= rt.parkedUntil.Load() {
		return
	}
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// wakeForStaged is wakeFor after staging intents on the ingress ring.
// A ring past a quarter full also wakes the driver, whatever the
// deadline: intents later than its sleep would otherwise pile up until
// a producer finds the ring full and applies the whole backlog itself,
// under the lock, instead of the driver draining it alongside. A boot
// replay of 100k timers hours out is such a stream.
func (rt *Runtime) wakeForStaged(deadline int64) {
	if rt.wake == nil {
		return
	}
	if ring := rt.ing.ring; ring.Len() >= ring.Cap()/4 {
		deadline = math.MinInt64
	}
	rt.wakeFor(deadline)
}

// validateTickless panics unless the scheme can report its next event.
func validateTickless(s Scheme) {
	if _, ok := s.(nextExpirer); !ok {
		panic(fmt.Sprintf(
			"timer: tickless runtime requires a scheme with NextExpiry "+
				"(ordered list, tree, bounded wheel, hybrid, or hierarchy); %s does not provide one",
			s.Name()))
	}
}
