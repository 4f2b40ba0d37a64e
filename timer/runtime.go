package timer

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"timingwheels/clock"
	iclock "timingwheels/internal/clock"
	"timingwheels/internal/core"
	"timingwheels/internal/hdr"
)

// ErrRuntimeClosed reports an operation on a Runtime after Close.
var ErrRuntimeClosed = errors.New("timer: runtime is closed")

// DefaultGranularity is the tick length a Runtime uses unless configured
// otherwise.
const DefaultGranularity = 10 * time.Millisecond

// RuntimeOption configures NewRuntime.
type RuntimeOption func(*runtimeConfig)

type runtimeConfig struct {
	granularity time.Duration
	scheme      Scheme
	schemeFn    func() Scheme
	nowFunc     func() time.Time
	clk         clock.Clock
	manual      bool
	tickless    bool

	// Hardening knobs; see health.go for the options that set them.
	panicHandler func(recovered any)
	budget       time.Duration
	slowHandler  func(elapsed time.Duration)
	maxCatchUp   Tick

	// Telemetry knobs; see trace.go.
	traceCap  int
	traceSink io.Writer

	// Durability hook; see journal.go.
	journal Journal
}

// WithGranularity sets the tick length (default 10ms). Finer granularity
// means more precise timers and more wakeups; the paper's schemes keep
// per-tick work O(1), so fine granularity stays affordable.
func WithGranularity(d time.Duration) RuntimeOption {
	return func(c *runtimeConfig) { c.granularity = d }
}

// WithScheme supplies the virtual-time facility the runtime drives
// (default: a 4096-slot Scheme 6 hashed wheel). The runtime takes
// ownership: the scheme must not be used directly afterwards. Do not
// pass WithScheme to NewSharded — every shard would receive the same
// facility instance and race on it; use WithSchemeFactory there.
func WithScheme(s Scheme) RuntimeOption {
	return func(c *runtimeConfig) { c.scheme = s }
}

// WithSchemeFactory supplies a constructor called once per runtime, so
// each of a Sharded facility's shards gets its own scheme instance —
// the only safe way to pick a non-default scheme for NewSharded. It
// overrides WithScheme when both are given.
func WithSchemeFactory(fn func() Scheme) RuntimeOption {
	return func(c *runtimeConfig) { c.schemeFn = fn }
}

// WithNowFunc replaces the wall-clock source, for tests. It overrides
// the Now of a WithClockSource clock; the driver's tickers and sleeps
// still come from that clock.
func WithNowFunc(fn func() time.Time) RuntimeOption {
	return func(c *runtimeConfig) { c.nowFunc = fn }
}

// WithClockSource replaces every use of the time package in the runtime
// — Now sampling, the driver's ticker, the tickless sleeper, and the
// Drain poll loop — with c, making the runtime a pure consumer of the
// clock.Clock interface. Pass a *clock.Fake to run the runtime on
// virtual time (see VirtualDriver); the default is clock.Real.
func WithClockSource(c clock.Clock) RuntimeOption {
	return func(cfg *runtimeConfig) { cfg.clk = c }
}

// WithManualDriver disables the background ticking goroutine; the caller
// must invoke Poll to advance the runtime. For tests and single-threaded
// event loops that own their own wakeup source.
func WithManualDriver() RuntimeOption {
	return func(c *runtimeConfig) { c.manual = true }
}

// Runtime drives a Scheme from the wall clock and makes it safe for
// concurrent use. Timers are scheduled in time.Duration terms; durations
// round up to whole ticks counted from the start of the current tick, so
// on an on-time driver a timer fires within one granularity either side
// of its wall-clock deadline (now + d): up to a tick late when armed at
// a tick boundary, up to a tick early when armed just before the next.
//
// Expiry functions run on the runtime's ticking goroutine, outside the
// internal lock, so they may schedule and stop other timers; they should
// not block for long, or they delay other expiries (the same discipline
// production hashed-wheel timers impose). Every expiry action runs under a
// recovery barrier: a panicking callback is contained and counted (see
// Health and WithPanicHandler) instead of killing the driver and
// stranding every outstanding timer.
//
// # Hot-path memory discipline
//
// Each Timer embeds its scheme entry (core.Entry), so an armed timer is
// one 112-byte record: the production schemes link the Timer's own
// entry into their slot lists, and fire it through the Timer itself,
// with no per-timer closure. Timers are carved from slabs of slabSize,
// one allocation per slab. The schedule→expire→deliver path is
// allocation-free in steady state: stopped Timers are recycled on the
// runtime's free list, and the fired buffer is reused across polls; see
// DESIGN.md.
type Runtime struct {
	mu  sync.Mutex
	fac Scheme
	// ops arms, stops, and resets Timer entries: fac itself for an entry
	// scheme, else a closure adapter over fac's paper API (Schemes 1-4,
	// the trees, wrappers).
	ops    core.EntryOps
	wall   *iclock.Wall
	guard  *iclock.Guard // anomaly watch over the wall tick stream
	now    func() time.Time
	clk    clock.Clock // tick/sleep source: Real unless WithClockSource
	manual bool        // WithManualDriver: no background goroutine

	// Shutdown state, guarded by mu. draining means Drain has begun and
	// new admissions fail with ErrDraining while outstanding timers are
	// disposed of; closed means the runtime is fully stopped.
	// doneClosing is non-nil once a Drain/Close has claimed the
	// shutdown, and is closed when the runtime is fully stopped.
	draining    bool
	closed      bool
	doneClosing chan struct{}

	fired  []firing // collected during tick, run after unlock
	stopCh chan struct{}
	doneCh chan struct{}
	wake   chan struct{} // tickless driver poke; nil in ticking mode
	// parkedUntil is the tick the tickless driver sleeps until, stored
	// under mu by the driver (notParked while it is awake) and read by
	// admissions outside it: see wakeFor.
	parkedUntil atomic.Int64
	// started and stopped are lifetime counters, guarded by mu.
	started, stopped uint64

	// freeMu guards the Timer free list and the fired-buffer pool. It is
	// a leaf lock: acquired with rt.mu held (Poll's buffer swap) or with
	// no lock held, and never the other way around. free is a stack of
	// recycled Timers, refilled a slab at a time when empty.
	freeMu   sync.Mutex
	free     []*Timer
	bufs     [][]firing
	fireBufs [][]Fire

	// Hardening configuration (immutable after NewRuntime).
	panicHandler func(recovered any)
	budget       time.Duration
	slowHandler  func(elapsed time.Duration)
	maxCatchUp   Tick // per-poll advance cap; <= 0 means unbounded

	// journal is the durability hook (immutable after NewRuntime); nil
	// unless WithJournal. batcher is where a poll's fires go: the
	// journal itself when it implements FireBatcher, else nil. See
	// journal.go.
	journal Journal
	batcher FireBatcher

	// Telemetry (always on). The histograms are lock-free fixed arrays,
	// recorded into from the hot path with atomic increments only;
	// lastTick mirrors the facility's virtual time after the most
	// recent advance so delivery can compute firing lag without taking
	// rt.mu. lastWall mirrors the clock's wall reading from the same
	// advances, so trace records stamp WallNS with one atomic load
	// instead of a clock read. granNS converts tick lags to
	// nanoseconds. trace is the opt-in flight recorder (nil unless
	// WithTrace).
	lagHist   *hdr.Histogram // firing lag: deadline -> delivery, ns
	durHist   *hdr.Histogram // callback duration, ns
	batchHist *hdr.Histogram // expiries fired per poll
	lastTick  atomic.Int64
	lastWall  atomic.Int64 // unix ns at the most recent advance
	granNS    int64
	trace     *traceRing

	// Health counters. The atomics are written outside rt.mu (on the
	// delivering goroutine); lastAnomaly is guarded by rt.mu.
	panics      atomic.Uint64
	slow        atomic.Uint64
	delivered   atomic.Uint64
	abandoned   atomic.Uint64
	behind      atomic.Int64
	anomalies   atomic.Uint64
	lastAnomaly Anomaly
}

// Timer is one scheduled expiry action, returned by AfterFunc and
// Schedule.
//
// A Timer whose Stop returned true is recycled onto the runtime's free
// list and must not be used again (no further Stop or Reset calls): the
// object may already represent a different timer. Until Stop returns
// true the Timer remains valid indefinitely — in particular a fired
// Timer may be re-armed with Reset.
type Timer struct {
	// ent is the timer's scheme entry, re-armed in place for every
	// lifecycle of this object; its ID is the timer's ID and its When
	// the timer's deadline tick. Mutated only under rt.mu.
	ent core.Entry
	rt  *Runtime
	fn  func()
	ch  chan time.Time // After-style delivery; nil for fn timers
	// tag is the caller identity WithTag attached (0 = untagged); the
	// key the Journal correlates transitions by. Written at schedule
	// time.
	tag uint64
}

// expiry is a Timer seen as its entry's Expirer: a conversion of *Timer,
// so the entry holds the Timer itself without a public method on it.
type expiry Timer

// firing is one expired timer collected under rt.mu, with the ID and
// deadline of the lifecycle that fired: delivery runs unlocked, and a
// Reset on another goroutine may meanwhile re-arm the Timer under a new
// ID and deadline.
type firing struct {
	t    *Timer
	id   ID
	when Tick
}

// Expire runs inside fac.Tick under rt.mu: defer execution until the
// poll has unlocked.
func (x *expiry) Expire(id core.ID) {
	t := (*Timer)(x)
	t.rt.fired = append(t.rt.fired, firing{t: t, id: id, when: t.ent.When})
}

// NewRuntime starts a runtime. Close it when done to release the ticking
// goroutine.
func NewRuntime(opts ...RuntimeOption) *Runtime {
	cfg := runtimeConfig{
		granularity: DefaultGranularity,
		maxCatchUp:  DefaultMaxCatchUp,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.clk == nil {
		cfg.clk = clock.Real{}
	}
	if cfg.nowFunc == nil {
		if _, real := cfg.clk.(clock.Real); real {
			// Skip the interface method-value hop on the default path:
			// nowFunc is read on every Schedule and every poll.
			cfg.nowFunc = time.Now
		} else {
			cfg.nowFunc = cfg.clk.Now
		}
	}
	if cfg.schemeFn != nil {
		cfg.scheme = cfg.schemeFn()
	}
	if cfg.scheme == nil {
		cfg.scheme = NewHashedWheel(4096)
	}
	batcher, _ := cfg.journal.(FireBatcher)
	rt := &Runtime{
		fac:          cfg.scheme,
		now:          cfg.nowFunc,
		clk:          cfg.clk,
		manual:       cfg.manual,
		stopCh:       make(chan struct{}),
		doneCh:       make(chan struct{}),
		panicHandler: cfg.panicHandler,
		budget:       cfg.budget,
		slowHandler:  cfg.slowHandler,
		maxCatchUp:   cfg.maxCatchUp,
		lagHist:      hdr.New(),
		durHist:      hdr.New(),
		batchHist:    hdr.New(),
		granNS:       cfg.granularity.Nanoseconds(),
		journal:      cfg.journal,
		batcher:      batcher,
	}
	if cfg.traceCap > 0 {
		rt.trace = newTraceRing(cfg.traceCap, cfg.traceSink)
	}
	rt.ops = core.EntriesOf(cfg.scheme)
	boot := rt.now()
	rt.wall = iclock.NewWall(boot, cfg.granularity)
	rt.lastWall.Store(boot.UnixNano())
	rt.guard = iclock.NewGuard(rt.wall)
	switch {
	case cfg.manual:
		close(rt.doneCh)
	case cfg.tickless:
		validateTickless(rt.fac)
		rt.wake = make(chan struct{}, 1)
		rt.parkedUntil.Store(notParked)
		go rt.ticklessLoop()
	default:
		go rt.loop(cfg.granularity)
	}
	return rt
}

// Granularity reports the runtime's tick length.
func (rt *Runtime) Granularity() time.Duration { return rt.wall.Granularity() }

// slabSize is how many Timers one allocation carves when the free list
// runs dry: as many as fit in 8 KiB, one of the allocator's size
// classes, so a slab of 73 112-byte Timers wastes 16 bytes where 64
// (7 KiB) would round up to the same 8 KiB and waste 1 KiB. A slab is
// one object for the collector to track instead of slabSize. The free
// list keeps every Timer for the runtime's lifetime anyway, so a slab
// pinned by one live Timer wastes nothing that recycling would have
// returned.
const slabSize = 8 << 10 / int(unsafe.Sizeof(Timer{}))

// popTimerLocked pops a recycled Timer, carving a fresh slab onto the
// free list when it is empty. Caller holds freeMu.
func (rt *Runtime) popTimerLocked() *Timer {
	n := len(rt.free)
	if n == 0 {
		slab := make([]Timer, slabSize)
		// Pushed in reverse so the slab is handed out front to back.
		for i := len(slab) - 1; i >= 0; i-- {
			t := &slab[i]
			t.rt = rt
			t.ent.SetExpirer((*expiry)(t))
			rt.free = append(rt.free, t)
		}
		n = len(rt.free)
	}
	t := rt.free[n-1]
	rt.free[n-1] = nil
	rt.free = rt.free[:n-1]
	return t
}

// acquireTimer pops a recycled Timer, or carves a slab. Called without
// rt.mu held, so the (rare) allocation happens outside the lock.
func (rt *Runtime) acquireTimer() *Timer {
	rt.freeMu.Lock()
	t := rt.popTimerLocked()
	rt.freeMu.Unlock()
	return t
}

// recycleTimer parks a Timer on the free list. Only fn/ch are cleared
// here: the entry is mutated exclusively under rt.mu (by the next
// schedule), and stays stopped or fired until then.
func (rt *Runtime) recycleTimer(t *Timer) {
	t.fn = nil
	t.ch = nil
	rt.freeMu.Lock()
	rt.free = append(rt.free, t)
	rt.freeMu.Unlock()
}

// takeBuf pops a spare fired buffer (nil when none: the first append
// allocates it, after which it cycles). Called with rt.mu held.
func (rt *Runtime) takeBuf() []firing {
	rt.freeMu.Lock()
	defer rt.freeMu.Unlock()
	if n := len(rt.bufs); n > 0 {
		b := rt.bufs[n-1]
		rt.bufs = rt.bufs[:n-1]
		return b
	}
	return nil
}

// putBuf returns a drained fired buffer to the pool, dropping its timer
// references so recycled objects aren't pinned.
func (rt *Runtime) putBuf(b []firing) {
	if b == nil {
		return
	}
	clear(b)
	rt.freeMu.Lock()
	rt.bufs = append(rt.bufs, b[:0])
	rt.freeMu.Unlock()
}

// takeFires pops a spare fire-batch buffer (nil when none, as takeBuf).
func (rt *Runtime) takeFires() []Fire {
	rt.freeMu.Lock()
	defer rt.freeMu.Unlock()
	if n := len(rt.fireBufs); n > 0 {
		b := rt.fireBufs[n-1]
		rt.fireBufs = rt.fireBufs[:n-1]
		return b
	}
	return nil
}

// putFires returns a fire-batch buffer to the pool. Fire holds no
// pointers, so nothing needs clearing.
func (rt *Runtime) putFires(b []Fire) {
	if b == nil {
		return
	}
	rt.freeMu.Lock()
	rt.fireBufs = append(rt.fireBufs, b[:0])
	rt.freeMu.Unlock()
}

// deliverAll runs one poll's expired timers outside rt.mu, then hands
// their journaled fires to the batcher in one call, and returns the
// buffers to their pools. Poll and DrainFireNow's bursts share it.
func (rt *Runtime) deliverAll(fired []firing) {
	var fires []Fire
	if rt.batcher != nil && len(fired) > 0 {
		fires = rt.takeFires()
	}
	for _, f := range fired {
		fires = rt.deliver(f, fires)
	}
	if len(fires) > 0 {
		rt.batcher.TimersFired(fires)
	}
	rt.putFires(fires)
	rt.putBuf(fired)
}

// loop is the PER_TICK_BOOKKEEPING driver: it wakes every granularity
// and catches the facility up to wall time, so a delayed wakeup runs
// several ticks back to back rather than skewing all future timers.
func (rt *Runtime) loop(granularity time.Duration) {
	defer close(rt.doneCh)
	ticker := rt.clk.NewTicker(granularity)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stopCh:
			return
		case <-ticker.C():
			rt.Poll()
			// A clock jump can leave the facility further behind than
			// the per-poll catch-up budget. Keep draining in bounded
			// bursts — running each batch's expiries between polls —
			// instead of paying one tick of latency per budget's worth.
			for rt.behind.Load() > 0 {
				select {
				case <-rt.stopCh:
					return
				default:
				}
				rt.Poll()
			}
		}
	}
}

// Poll advances the facility toward the current wall tick and runs due
// expiry actions, returning the number of timers that expired in this
// pass. It is called automatically by the background driver; call it
// directly only with WithManualDriver. One poll advances at most the
// WithMaxCatchUp budget; if the clock is further ahead (suspend/resume,
// NTP step) the overrun is reported in Health().TicksBehind and manual
// drivers should keep polling until it reaches zero (the background
// drivers do so automatically).
func (rt *Runtime) Poll() int {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return 0
	}
	wallNow := rt.now()
	target, back := rt.guard.Observe(wallNow)
	if back > 0 {
		// Backward step: never rewind the facility — outstanding timers
		// keep their deadlines — but record that the clock misbehaved.
		rt.noteAnomaly(Anomaly{Kind: AnomalyBackwardStep, Ticks: back, Wall: wallNow})
	}
	if delta := Tick(target) - rt.fac.Now(); delta > 0 {
		burst := delta
		if rt.maxCatchUp > 0 && burst > rt.maxCatchUp {
			burst = rt.maxCatchUp
			// Record the jump once per catch-up episode, not once per
			// bounded batch while draining it.
			if rt.behind.Load() == 0 {
				rt.noteAnomaly(Anomaly{Kind: AnomalyForwardJump, Ticks: int64(delta), Wall: wallNow})
			}
		}
		// AdvanceBy lets ordered/tree schemes skip idle spans in O(1);
		// wheels fall back to per-tick stepping.
		core.AdvanceBy(rt.fac, burst)
		rt.behind.Store(int64(delta - burst))
	} else {
		rt.behind.Store(0)
	}
	rt.lastTick.Store(int64(rt.fac.Now()))
	rt.lastWall.Store(wallNow.UnixNano())
	fired := rt.fired
	rt.fired = rt.takeBuf()
	rt.mu.Unlock()

	// Run expiry actions outside the lock so they can freely call
	// AfterFunc / Stop without self-deadlock. deliver applies the
	// recovery barrier and the slow-callback watchdog.
	n := len(fired)
	rt.deliverAll(fired)
	rt.batchHist.Record(int64(n))
	return n
}

// AfterFunc schedules fn to run once, d from now (rounded up to a whole
// tick, minimum one tick). The returned Timer can be stopped. fn may be
// nil only for a tagged, journal-only timer (see WithTag).
func (rt *Runtime) AfterFunc(d time.Duration, fn func(), opts ...ScheduleOption) (*Timer, error) {
	if fn == nil && tagOf(opts) == 0 {
		return nil, ErrNilCallback
	}
	return rt.schedule(rt.wall.TicksFor(d), fn, nil, opts)
}

// Schedule schedules fn to run once after the given number of whole
// ticks (minimum one). fn may be nil only for a tagged, journal-only
// timer (see WithTag).
func (rt *Runtime) Schedule(ticks Tick, fn func(), opts ...ScheduleOption) (*Timer, error) {
	if fn == nil && tagOf(opts) == 0 {
		return nil, ErrNilCallback
	}
	if ticks < 1 {
		ticks = 1
	}
	// Same cap TicksFor applies: downstream deadline arithmetic
	// (fac.Now() + ticks, stretch's lag add) must never wrap int64.
	if int64(ticks) > iclock.MaxTicks {
		ticks = Tick(iclock.MaxTicks)
	}
	return rt.schedule(int64(ticks), fn, nil, opts)
}

// stretch compensates a start interval for a facility whose virtual time
// lags the wall clock — a parked tickless driver, or a catch-up episode
// in progress. Starting the timer against the stale virtual clock would
// fire it early by exactly the staleness; stretching by the lag lands
// the expiry in the same window an on-time facility gives, within one
// granularity of the wall-clock deadline. The interval is never shortened:
// after a backward clock step the facility is ahead of the wall and
// timers stay conservatively late, not early. wallTicks is the wall
// reading, taken by the caller outside rt.mu so the lock isn't held
// across a clock read; the caller holds rt.mu.
func (rt *Runtime) stretch(ticks, wallTicks int64) int64 {
	if lag := wallTicks - int64(rt.fac.Now()); lag > 0 {
		ticks += lag
	}
	// ticks is at most MaxTicks (1<<61; TicksFor and Schedule cap there),
	// but the lag is only bounded by the wall reading, which an extreme
	// nowFunc could push arbitrarily far ahead; saturate so the caller's
	// deadline add stays in range.
	if ticks > iclock.MaxTicks {
		ticks = iclock.MaxTicks
	}
	return ticks
}

// armLocked starts a fresh lifecycle of t's entry, expiring ticks from
// now, and records the arm. The caller counts it started. Caller holds
// rt.mu; ticks is already stretched/clamped.
func (rt *Runtime) armLocked(t *Timer, ticks Tick) error {
	if err := rt.ops.StartEntry(&t.ent, ticks); err != nil {
		return err
	}
	rt.traceRecord(TraceScheduled, t.ID(), rt.fac.Now(), t.ent.When, 0)
	rt.journalArmed(t)
	return nil
}

// rearmLocked re-arms t to expire ticks from now. A pending timer is
// reset in place — same entry, same ID — so neither started nor stopped
// moves: the conservation ledger sees an update, not a lifecycle. A
// timer that already fired (or was never armed) starts a fresh
// lifecycle, counted started. wasPending reports which; a reset the
// scheme refuses (interval out of range) leaves the timer at its old
// deadline. Caller holds rt.mu; ticks is already stretched/clamped.
func (rt *Runtime) rearmLocked(t *Timer, ticks Tick) (wasPending bool, err error) {
	switch err := rt.ops.ResetEntry(&t.ent, ticks); err {
	case nil:
		wasPending = true
		rt.traceRecord(TraceScheduled, t.ID(), rt.fac.Now(), t.ent.When, 0)
		rt.journalArmed(t)
	case core.ErrTimerNotPending:
		if err := rt.armLocked(t, ticks); err != nil {
			return false, err
		}
		rt.started++
	default:
		return true, err
	}
	return wasPending, nil
}

func (rt *Runtime) schedule(ticks int64, fn func(), ch chan time.Time, opts []ScheduleOption) (*Timer, error) {
	// Clock reads and the free-list pop stay outside rt.mu.
	wallTicks := rt.wall.TicksAt(rt.now())
	t := rt.acquireTimer()
	t.fn, t.ch, t.tag = fn, ch, tagOf(opts)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed || rt.draining {
		err := ErrRuntimeClosed
		if !rt.closed {
			err = ErrDraining
		}
		rt.recycleTimer(t)
		return nil, err
	}
	ticks = rt.stretch(ticks, wallTicks)
	if err := rt.armLocked(t, Tick(ticks)); err != nil {
		rt.recycleTimer(t)
		return nil, err
	}
	rt.started++
	rt.wakeFor(int64(t.ent.When))
	return t, nil
}

// After returns a channel that delivers the fire time once, d from now —
// the time.After analogue. The send is performed inline on the driver
// goroutine; it is non-blocking by construction.
func (rt *Runtime) After(d time.Duration, opts ...ScheduleOption) (<-chan time.Time, error) {
	ch := make(chan time.Time, 1)
	_, err := rt.schedule(rt.wall.TicksFor(d), nil, ch, opts)
	if err != nil {
		return nil, err
	}
	return ch, nil
}

// Stop cancels the timer, reporting whether it was cancelled before its
// expiry action ran (false means it already fired or was already
// stopped). When Stop returns true the Timer is recycled and must not be
// touched again — not even by another Stop: a retained pointer may
// already refer to a different, re-armed timer. Concurrent Stop calls on
// a timer that has fired (or racing with its firing) remain safe; they
// return false.
func (t *Timer) Stop() bool {
	rt := t.rt
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return false
	}
	if rt.ops.StopEntry(&t.ent) != nil {
		rt.mu.Unlock()
		return false
	}
	rt.stopped++
	rt.traceRecord(TraceStopped, t.ID(), rt.fac.Now(), t.ent.When, 0)
	rt.journalStopped(t)
	rt.mu.Unlock()
	// Truly cancelled: the entry is unlinked, so the Timer (entry and
	// all) goes back on the free list.
	rt.recycleTimer(t)
	return true
}

// Deadline reports the tick at which the timer fires (or would have):
// its entry's expiry tick, which every scheme sets to the arm's now plus
// interval.
func (t *Timer) Deadline() Tick { return t.ent.When }

// ID reports the timer's never-reused facility identity — the key that
// correlates its events in the flight recorder (WithTrace). A Reset of a
// pending timer keeps it; re-arming a fired timer assigns a new one.
func (t *Timer) ID() ID { return t.ent.ID() }

// Reset re-arms the timer to fire d from now, reporting whether it was
// still pending when rescheduled (false means the expiry action already
// ran or was queued to run, and will still run; the timer is re-armed
// regardless, so the action runs again at the new deadline). This is the
// retransmission-timer idiom: every send Resets the timeout. Reset must
// not be used after Stop has returned true.
//
// A pending timer is reset in place on every scheme: it keeps its ID,
// and Stats counts neither a stop nor a start. Re-arming a timer whose
// action already ran starts a new lifecycle under a new ID.
func (t *Timer) Reset(d time.Duration) (wasPending bool, err error) {
	rt := t.rt
	ticks := rt.wall.TicksFor(d)
	wallTicks := rt.wall.TicksAt(rt.now())
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return false, ErrRuntimeClosed
	}
	if rt.draining {
		// A draining runtime admits nothing new; the timer keeps its
		// current deadline and is disposed of by the drain policy.
		return false, ErrDraining
	}
	wasPending, err = rt.rearmLocked(t, Tick(rt.stretch(ticks, wallTicks)))
	if err == nil {
		rt.wakeFor(int64(t.ent.When))
	}
	return wasPending, err
}

// Outstanding reports the number of pending timers. On a closed runtime
// it reports zero: timers still in the facility at close were cancelled
// and are accounted in Health().AbandonedOnClose (or fired by the drain
// policy), not outstanding.
func (rt *Runtime) Outstanding() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.outstandingLocked()
}

// outstandingLocked counts the timers armed in the facility. Caller
// holds rt.mu.
func (rt *Runtime) outstandingLocked() int {
	if rt.closed {
		return 0
	}
	return rt.fac.Len()
}

// Stats reports lifetime counters: timers started, expired, and stopped.
// expired counts delivered expiries — actions that actually ran (or,
// for After, sends that were delivered), Health().Delivered — so the
// invariant
//
//	started == expired + stopped + Outstanding() + AbandonedOnClose
//
// holds exactly whenever no poll is mid-delivery (the last term is zero
// until Close/Drain).
func (rt *Runtime) Stats() (started, expired, stopped uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.started, rt.delivered.Load(), rt.stopped
}

// Close shuts the runtime down: Drain with the zero-grace DrainCancelAll
// policy. Pending timers never fire — they are counted in
// Health().AbandonedOnClose — and subsequent scheduling calls fail with
// ErrRuntimeClosed. Close blocks until the ticking goroutine exits; it
// is idempotent and safe to call concurrently (every call blocks until
// the runtime is fully stopped, including a Drain already in flight).
// Close must not be called from inside an expiry action: the driver
// would wait on itself.
func (rt *Runtime) Close() error {
	// Drain reports ErrRuntimeClosed/ErrDraining when another shutdown
	// won the race; it has already waited for that shutdown to finish,
	// which is all Close promises.
	_, _ = rt.Drain(context.Background(), DrainCancelAll)
	return nil
}
