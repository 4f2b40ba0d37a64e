package timer

import (
	"errors"
	"math"
	"sync/atomic"
	"time"

	"timingwheels/internal/hdr"
	"timingwheels/internal/ingress"
)

// ErrStopPending reports a Reset on a timer whose cancellation has
// already been accepted but not yet applied by the driver — a state
// that exists only on WithIngress runtimes, where Stop stages an intent
// instead of cancelling inline. The outcome is definitive: the timer
// WILL be cancelled, the Reset did nothing, and the Timer must not be
// touched again (exactly as after a synchronous Stop that returned
// true).
var ErrStopPending = errors.New("timer: stop already pending for this timer")

// DefaultIngressDepth is the staging-ring capacity WithIngress uses
// when given a non-positive depth.
const DefaultIngressDepth = 1 << 14

// WithIngress routes admissions through a bounded lock-free MPSC
// staging ring of the given capacity (rounded up to a power of two;
// <= 0 means DefaultIngressDepth) instead of taking the runtime lock
// per operation: AfterFunc/Schedule/After/Stop/Reset and the batch
// APIs push intents that the driver applies at the next tick boundary
// in one lock acquisition per batch. This trades a bounded admission
// latency (at most one tick, since the driver drains the ring before
// advancing virtual time — a staged timer can never fire late because
// intents carry their wall-clock tick and are armed against it) for
// admission that scales with producers instead of serializing on the
// lock, the decoupling Lawn-style timer stores use.
//
// Semantic differences from the default synchronous path, all bounded
// to the staging window:
//
//   - Stop reports whether the cancellation was ACCEPTED (it is then
//     guaranteed to be applied before the timer could fire), not
//     whether the timer was still pending; the exact outcome lands in
//     Stats()/Health() once the driver applies it.
//   - Reset on a timer whose stop is still staged fails with
//     ErrStopPending (see that error's doc).
//   - A timer scheduled and stopped within one staging window never
//     touches the wheel at all.
//
// When the ring is full (producers outpacing the driver) operations
// fall back to the synchronous locked path, so admission never blocks
// on the ring and never fails spuriously. WithIngress requires an
// entry scheme (the hashed, hierarchical, and hybrid wheels, or the
// grouped queue); NewRuntime panics otherwise.
func WithIngress(depth int) RuntimeOption {
	return func(c *runtimeConfig) {
		if depth <= 0 {
			depth = DefaultIngressDepth
		}
		c.ingressDepth = depth
	}
}

// Req is one schedule request in a ScheduleBatch.
type Req struct {
	// After is the delay before Fn runs; it rounds up to a whole tick,
	// minimum one.
	After time.Duration
	// Fn is the expiry action; a nil Fn voids the entry (its slot in
	// the returned []*Timer is nil and ScheduleBatch reports
	// ErrNilCallback).
	Fn func()
	// Opt tunes overload behavior (e.g. WithPriority); the zero value
	// means PriorityNormal.
	Opt ScheduleOption
}

// Ingress lifecycle, held in Timer.lc on WithIngress runtimes (always
// zero on synchronous runtimes). The low two bits are the state; the
// bits above are the incarnation, bumped every time the object is
// retired so intents staged against a dead incarnation are recognized
// as stale. Packing both into one word means a single CAS witnesses
// the state AND the incarnation it transitions: a stop-while-staged
// commits the cancellation, voids the pending schedule intent, and
// frees the object in one atomic step, with no ring traffic and no
// driver-side work beyond one failed CAS when the dead intent pops.
const (
	// ingFree: not currently owned by a caller (on the free list, or
	// never ingress-managed).
	ingFree uint32 = iota
	// ingStaged: admitted, schedule intent not yet applied.
	ingStaged
	// ingArmed: applied — the timer sits in the wheel.
	ingArmed
	// ingStopping: a stop of an ARMED timer has been committed but not
	// yet applied; terminal for this incarnation. (A stop of a STAGED
	// timer settles immediately and goes straight back to ingFree.)
	ingStopping

	lcStateMask uint32 = 3
	// lcIncar is one incarnation step. Adding it to the word never
	// carries into the state bits (overflow falls off the top), so
	// lc.Add(lcIncar) retires an incarnation while preserving state.
	lcIncar uint32 = 4
)

// Intent opcodes.
const (
	opSchedule uint8 = iota
	opStop
	opReset
)

// intent is one staged admission operation. Producers fill it outside
// any lock; the driver applies it under rt.mu in ring (FIFO) order.
// ticks is the requested interval and wall the producer's wall-clock
// tick at staging time: the driver arms the timer for absolute tick
// wall+ticks, so drain latency never delays (and never advances) the
// deadline beyond the usual round-up. lc is the lifecycle word the
// intent expects to find at apply time (schedule: this incarnation
// still staged; reset: this incarnation armed); any other value means
// the incarnation was settled elsewhere and the intent is dead.
type intent struct {
	t     *Timer
	ticks int64
	wall  int64
	lc    uint32
	op    uint8
}

// ingressState is the per-runtime staging machinery (nil unless
// WithIngress). Ingress Timers recycle through the runtime's freeMu
// chain (one splice per batch on the batch paths), not a sync.Pool:
// the chain splice is cheaper than per-object pool traffic and reuses
// the leaf lock the synchronous path already has.
type ingressState struct {
	ring *ingress.Ring[intent]
	// gate fences producers out during Drain/Close so the final ring
	// sweep observes a quiescent ring.
	gate ingress.Gate
	// staged counts schedule intents pushed but not yet applied; it
	// joins Outstanding() so the conservation ledger holds while
	// intents are in flight.
	staged atomic.Int64
	// depthHist records the ring depth observed at each drain;
	// batchHist the intents applied per drain.
	depthHist *hdr.Histogram
	batchHist *hdr.Histogram
}

func newIngressState(depth int) *ingressState {
	return &ingressState{
		ring:      ingress.New[intent](depth),
		depthHist: hdr.New(),
		batchHist: hdr.New(),
	}
}

// recycleIngressTimer retires one ingress-mode Timer incarnation: the
// incarnation bump invalidates any staged intent still carrying the
// old one. The entry stays stopped or fired until the next incarnation
// arms it, so the locked fallback paths cannot stop or reset it in
// between. Called either under rt.mu (apply/fallback paths) or on an
// object no other goroutine can reach (producer error paths, After
// delivery).
func (rt *Runtime) recycleIngressTimer(t *Timer) {
	t.lc.Store((t.lc.Load() + lcIncar) &^ lcStateMask)
	rt.recycleTimer(t) // clears fn/ch, pushes onto the freeMu chain
}

// acquireTimerChain pops up to n recycled Timers in one free-list
// acquisition, returned as a chain linked through .free
// (nil-terminated; may be shorter than n). The batch admission path
// consumes it front to back so a whole batch pays one lock for all its
// objects.
func (rt *Runtime) acquireTimerChain(n int) *Timer {
	rt.freeMu.Lock()
	head := rt.freeTimers
	var tail *Timer
	for t, cnt := head, 0; t != nil && cnt < n; t, cnt = t.free, cnt+1 {
		tail = t
	}
	if tail != nil {
		rt.freeTimers = tail.free
		tail.free = nil
	}
	rt.freeMu.Unlock()
	return head
}

// releaseTimerChain returns an unused chain to the free list.
func (rt *Runtime) releaseTimerChain(head *Timer) {
	if head == nil {
		return
	}
	tail := head
	for tail.free != nil {
		tail = tail.free
	}
	rt.freeMu.Lock()
	tail.free = rt.freeTimers
	rt.freeTimers = head
	rt.freeMu.Unlock()
}

// shutdownErr reports why admission is refused on a fenced runtime.
func (rt *Runtime) shutdownErr() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrRuntimeClosed
	}
	return ErrDraining
}

// scheduleIngress stages one schedule intent; rt.ing is non-nil.
func (rt *Runtime) scheduleIngress(ticks int64, fn func(), ch chan time.Time, opts []ScheduleOption) (*Timer, error) {
	ing := rt.ing
	wallTicks := rt.wall.TicksAt(rt.now())
	if !ing.gate.Enter() {
		return nil, rt.shutdownErr()
	}
	defer ing.gate.Leave()
	t := rt.acquireTimer()
	t.fn, t.ch = fn, ch
	t.prio, t.retries, t.tag = PriorityNormal, 0, 0
	for _, o := range opts {
		o.apply(t)
	}
	lc := t.lc.Load()&^lcStateMask | ingStaged
	t.lc.Store(lc)
	rt.started.Add(1)
	ing.staged.Add(1)
	if ing.ring.Push(intent{t: t, op: opSchedule, lc: lc, ticks: ticks, wall: wallTicks}) {
		rt.wakeForStaged(wallTicks + ticks)
		return t, nil
	}
	// Ring full: the driver is behind. Arm synchronously under the lock
	// so admission keeps its liveness whatever the ring does.
	ing.staged.Add(-1)
	return rt.armIngressFallback(t, ticks, wallTicks)
}

// armIngressFallback arms one staged timer synchronously (ring full).
// The caller has already counted it started. Since it pays for the lock
// anyway, it drains the ring while holding it — overflow converts into
// one producer-side batch apply, after which staging is cheap again —
// rather than leaving the ring full and degrading every subsequent
// admission to this path.
func (rt *Runtime) armIngressFallback(t *Timer, ticks, wallTicks int64) (*Timer, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.drainIngressLocked()
	t, err := rt.armIngressFallbackLocked(t, ticks, wallTicks)
	if err == nil {
		rt.wakeFor(int64(t.deadline))
	}
	return t, err
}

// armIngressFallbackLocked arms one staged timer under rt.mu. The
// caller wakes the tickless driver for it.
func (rt *Runtime) armIngressFallbackLocked(t *Timer, ticks, wallTicks int64) (*Timer, error) {
	if rt.closed || rt.draining {
		err := ErrRuntimeClosed
		if !rt.closed {
			err = ErrDraining
		}
		rt.started.Add(^uint64(0)) // the admission never happened
		rt.recycleIngressTimer(t)
		return nil, err
	}
	ticks = rt.stretch(ticks, wallTicks)
	if err := rt.armLocked(t, Tick(ticks)); err != nil {
		rt.started.Add(^uint64(0))
		rt.recycleIngressTimer(t)
		return nil, err
	}
	// No concurrent Stop can race this store: the *Timer has not been
	// returned to any caller yet on every path that reaches here.
	t.lc.Store(t.lc.Load()&^lcStateMask | ingArmed)
	return t, nil
}

// settleStagedStop finishes a stop whose CAS retired a still-staged
// incarnation: the voided schedule intent is fully accounted here —
// the driver sees only a dead intent and drops it with one failed CAS
// — and the object goes straight back to the free list. Runs on the
// producer, outside every lock except the free-list splice.
func (rt *Runtime) settleStagedStop(t *Timer) {
	rt.ing.staged.Add(-1)
	rt.stoppedStaged.Add(1)
	rt.traceRecord(TraceStopped, 0, t.prio, Tick(rt.lastTick.Load()), 0, 0)
	if rt.journal != nil && t.tag != 0 {
		rt.journal.TimerStopped(t.tag, 0) // id was never set for a staged incarnation
	}
	rt.recycleTimer(t) // the entry was never armed for a staged incarnation
}

// stopIngress commits one cancellation on a WithIngress runtime. The
// CAS on the lifecycle word is the commit point: winners are guaranteed
// their timer never fires after this call returns (the driver drains
// the ring before advancing time), losers see false exactly like a
// synchronous Stop on a fired or already-stopped timer. A
// stop-while-staged settles entirely here — the incarnation bump in the
// same CAS voids the pending schedule intent — so the pair never
// touches the wheel or the lock; only armed timers cost a ring push.
func (rt *Runtime) stopIngress(t *Timer) bool {
	for {
		cur := t.lc.Load()
		switch cur & lcStateMask {
		case ingStaged:
			if !t.lc.CompareAndSwap(cur, (cur+lcIncar)&^lcStateMask) {
				continue
			}
			rt.settleStagedStop(t)
			return true
		case ingArmed:
			if !t.lc.CompareAndSwap(cur, cur&^lcStateMask|ingStopping) {
				continue
			}
			ing := rt.ing
			if ing.gate.Enter() {
				// A cancellation never needs an earlier wakeup: the
				// driver applies it before advancing time.
				if ing.ring.Push(intent{t: t, op: opStop}) {
					ing.gate.Leave()
					rt.wakeForStaged(math.MaxInt64)
					return true
				}
				ing.gate.Leave()
			}
			// Gate closed (drain in progress) or ring full: apply inline.
			rt.mu.Lock()
			rt.stopIngressLocked(t)
			rt.mu.Unlock()
			return true
		default:
			return false
		}
	}
}

// stopIngressLocked applies one committed armed-timer cancellation
// under rt.mu. Fired timers are past saving — the commitment was
// advisory, which is the documented ingress-mode Stop semantics.
func (rt *Runtime) stopIngressLocked(t *Timer) {
	if rt.closed {
		return
	}
	if rt.ops.StopEntry(&t.ent) == nil {
		rt.stopped++
		rt.traceRecord(TraceStopped, t.ID(), t.prio, rt.fac.Now(), t.deadline, 0)
		rt.journalStopped(t)
		rt.recycleIngressTimer(t)
	}
}

// resetIngress re-arms one timer on a WithIngress runtime. A committed
// stop makes the outcome definitive (ErrStopPending); otherwise the
// reset stages an intent carrying the timer's current incarnation, so
// a reset that loses a race with stop-and-recycle is discarded rather
// than re-arming a recycled object.
func (rt *Runtime) resetIngress(t *Timer, d time.Duration) (bool, error) {
	cur := t.lc.Load()
	if s := cur & lcStateMask; s != ingStaged && s != ingArmed {
		return false, ErrStopPending
	}
	ing := rt.ing
	ticks := rt.wall.TicksFor(d)
	wallTicks := rt.wall.TicksAt(rt.now())
	if ing.gate.Enter() {
		// The intent expects this incarnation ARMED at apply time: if it
		// is still staged now, its own schedule intent applies first
		// (FIFO) and arms it; if a stop settles it first, the
		// incarnation moves on and the reset is void.
		if ing.ring.Push(intent{t: t, op: opReset, lc: cur&^lcStateMask | ingArmed, ticks: ticks, wall: wallTicks}) {
			ing.gate.Leave()
			rt.wakeForStaged(wallTicks + ticks)
			// Pending as far as this incarnation can tell: no stop is
			// committed and the re-arm is guaranteed to apply (or to be
			// superseded by a later stop, exactly as with a synchronous
			// Reset followed by Stop).
			return true, nil
		}
		ing.gate.Leave()
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	wasPending, err := rt.resetIngressLocked(t, ticks, wallTicks)
	if err == nil {
		rt.wakeFor(int64(t.deadline))
	}
	return wasPending, err
}

// resetIngressLocked applies one committed reset under rt.mu — the
// fallback when the intent cannot stage (gate closed, ring full), and
// the per-item path ResetBatch's locked fallback shares. Caller holds
// rt.mu and wakes the tickless driver for the new deadline.
func (rt *Runtime) resetIngressLocked(t *Timer, ticks, wallTicks int64) (bool, error) {
	if rt.closed {
		return false, ErrRuntimeClosed
	}
	if rt.draining {
		return false, ErrDraining
	}
	cur := t.lc.Load()
	switch cur & lcStateMask {
	case ingStaged:
		// Still staged: supersede the pending schedule intent and arm at
		// the new deadline now. The CAS bumps the incarnation (voiding
		// that intent at apply time; its started count carries over to
		// this arm 1:1) and publishes the arm in one step — losing it
		// means a stop settled concurrently. The staged count moves here
		// with the admission, keeping Outstanding exact while the dead
		// intent is still in the ring.
		if !t.lc.CompareAndSwap(cur, (cur+lcIncar)&^lcStateMask|ingArmed) {
			return false, ErrStopPending
		}
		rt.ing.staged.Add(-1)
		if err := rt.armLocked(t, Tick(rt.stretch(ticks, wallTicks))); err != nil {
			// The pending intent is void and this arm failed: the
			// admission is over. Account it as shed (it was started).
			rt.shedStagedLocked(t)
			return true, err
		}
		return true, nil
	case ingArmed:
		// Retire the old incarnation (voiding any staged reset that
		// carries it) while preserving the state bits: a concurrent
		// armed-stop CAS may have just committed ingStopping, and its
		// intent must still find it there to cancel the re-arm below —
		// the documented stop-after-reset outcome (the stop intent
		// cancels the same entry the reset re-armed in place).
		t.lc.Add(lcIncar)
		return rt.rearmLocked(t, Tick(rt.stretch(ticks, wallTicks)))
	default:
		return false, ErrStopPending
	}
}

// shedStagedLocked accounts a staged admission the facility refused
// (bounded schemes only): it was counted started, so it must terminate
// in the ledger — as a shed expiry, the same bucket an overloaded
// dispatch drop lands in.
func (rt *Runtime) shedStagedLocked(t *Timer) {
	t.lc.Store(t.lc.Load()&^lcStateMask | ingStopping) // terminal; the object is abandoned to GC
	rt.shedC[t.prio].Add(1)
	// The admission never armed, so it has no ID (the entry may still
	// carry a previous incarnation's).
	rt.traceRecord(TraceShed, 0, t.prio, rt.fac.Now(), t.deadline, 0)
	if rt.journal != nil && t.tag != 0 {
		rt.journal.TimerShed(t.tag, 0)
	}
	if rt.shedHandler != nil {
		info := ShedInfo{Priority: t.prio, Deadline: t.deadline, Retries: int(t.retries)}
		safeHook(func() { rt.shedHandler(info) })
	}
}

// drainIngressLocked applies every staged intent in FIFO order — one
// lock acquisition for the whole batch, the amortization the staging
// ring exists for. Called by the drivers at tick boundaries (before
// advancing virtual time, so a staged timer whose deadline is due this
// tick is armed before the tick fires it) and once more by Drain after
// fencing producers out. Caller holds rt.mu.
func (rt *Runtime) drainIngressLocked() {
	ing := rt.ing
	if ing == nil {
		return
	}
	ing.depthHist.Record(int64(ing.ring.Len()))
	n := 0
	// Bound one sweep: producers may keep pushing while we drain, and
	// the tick must eventually run. After the drain fence the ring is
	// quiescent and always smaller than the bound.
	for limit := 2 * ing.ring.Cap(); n < limit; n++ {
		it, ok := ing.ring.Pop()
		if !ok {
			break
		}
		rt.applyIngressLocked(it)
	}
	ing.batchHist.Record(int64(n))
}

// applyIngressLocked applies one intent. Caller holds rt.mu.
func (rt *Runtime) applyIngressLocked(it intent) {
	t := it.t
	switch it.op {
	case opSchedule:
		// One CAS both checks the intent is live (same incarnation,
		// still staged) and publishes the arm. Failure means the
		// incarnation was settled elsewhere — a producer-side stop
		// (which accounted the cancellation and freed the object) or a
		// locked reset fallback (which inherited the admission, started
		// and staged counts included) — and the intent is dead.
		if !t.lc.CompareAndSwap(it.lc, it.lc&^lcStateMask|ingArmed) {
			return
		}
		rt.ing.staged.Add(-1)
		if rt.armLocked(t, rt.applyInterval(it)) != nil {
			rt.shedStagedLocked(t)
		}
	case opStop:
		// Only an armed-stop commit leaves the word in ingStopping, and
		// the incarnation stays there until this intent applies — so a
		// non-stopping state means the cancellation was already settled
		// (e.g. the timer fired and was recycled) and the intent is
		// stale.
		if t.lc.Load()&lcStateMask != ingStopping {
			return
		}
		rt.stopIngressLocked(t)
	case opReset:
		// The reset applies only to the incarnation it was staged
		// against, and only while that incarnation is armed (its own
		// schedule intent applies before it by FIFO order; a stop or a
		// recycle moves the incarnation on and voids it). A refused
		// re-arm leaves the timer as it was, like a synchronous Reset.
		if t.lc.Load() != it.lc {
			return
		}
		_, _ = rt.rearmLocked(t, rt.applyInterval(it))
	}
}

// applyInterval converts a staged intent's absolute target tick into the
// interval to arm now: never less than one tick, so an intent applied
// late fires on the next tick rather than never. Caller holds rt.mu.
func (rt *Runtime) applyInterval(it intent) Tick {
	iv := it.wall + it.ticks - int64(rt.fac.Now())
	if iv < 1 {
		iv = 1
	}
	return Tick(iv)
}

// finishIngressDrain fences producers out and applies whatever they
// managed to stage, so the drain policy sees every admitted timer in
// the facility. Called by Drain after the driver has stopped.
func (rt *Runtime) finishIngressDrain() {
	ing := rt.ing
	if ing == nil {
		return
	}
	ing.gate.Close()
	ing.gate.Wait()
	rt.mu.Lock()
	rt.drainIngressLocked()
	rt.mu.Unlock()
}

// batchChunk bounds the stack buffer the batch APIs stage through.
const batchChunk = 64

// ScheduleBatch schedules every request in one call, amortizing the
// admission cost across the batch: on a synchronous runtime the whole
// batch is armed under a single lock acquisition; on a WithIngress
// runtime it is staged with a single ring reservation. The returned
// slice is parallel to reqs; a slot is nil when its request was
// refused (nil Fn, or an interval the scheme cannot store), and the
// first such refusal is reported as the error alongside the timers
// that did get scheduled. On a draining or closed runtime nothing is
// scheduled and the slice is nil; if draining begins mid-batch on a
// WithIngress runtime, entries admitted before the fence stand (the
// drain policy disposes of them) and the rest are refused with nil
// slots and ErrDraining.
func (rt *Runtime) ScheduleBatch(reqs []Req) ([]*Timer, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	timers := make([]*Timer, len(reqs))
	if rt.ing != nil {
		return rt.scheduleBatchIngress(reqs, timers)
	}
	wallTicks := rt.wall.TicksAt(rt.now())
	var firstErr error
	earliest := int64(math.MaxInt64)
	rt.mu.Lock()
	if rt.closed || rt.draining {
		err := ErrRuntimeClosed
		if !rt.closed {
			err = ErrDraining
		}
		rt.mu.Unlock()
		return nil, err
	}
	for i, q := range reqs {
		if q.Fn == nil {
			if firstErr == nil {
				firstErr = ErrNilCallback
			}
			continue
		}
		t := rt.acquireTimer()
		t.fn, t.ch = q.Fn, nil
		t.prio, t.retries, t.tag = PriorityNormal, 0, 0
		q.Opt.apply(t)
		ticks := rt.stretch(rt.wall.TicksFor(q.After), wallTicks)
		if err := rt.armLocked(t, Tick(ticks)); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			rt.recycleTimer(t)
			continue
		}
		rt.started.Add(1)
		timers[i] = t
		earliest = min(earliest, int64(t.deadline))
	}
	rt.mu.Unlock()
	rt.wakeFor(earliest)
	return timers, firstErr
}

// scheduleBatchIngress stages the batch in stack-buffered chunks, one
// ring reservation per chunk (PushN claims the block with a single
// CAS; the fixed buffer keeps the producer hot path allocation-free
// apart from the caller-visible result slice), drawing all its Timer
// objects from the free list in one acquisition. A chunk that does not
// fit — the driver is behind — is applied producer-side under one lock
// acquisition, after draining the ring there so staging is cheap again
// for whoever admits next. If the runtime starts draining mid-batch,
// already-staged chunks stand (they were admitted before the fence and
// the drain policy will dispose of them); the rest of the batch is
// refused with nil slots.
func (rt *Runtime) scheduleBatchIngress(reqs []Req, timers []*Timer) ([]*Timer, error) {
	ing := rt.ing
	wallTicks := rt.wall.TicksAt(rt.now())
	if !ing.gate.Enter() {
		return nil, rt.shutdownErr()
	}
	defer ing.gate.Leave()
	var (
		firstErr error
		buf      [batchChunk]intent
		idx      [batchChunk]int // buf position -> slot in timers
		n        int
		fenced   bool
		// earliest is the batch's earliest requested deadline; a
		// chunk the fallback arms stretched lands no earlier.
		earliest = int64(math.MaxInt64)
	)
	chain := rt.acquireTimerChain(len(reqs))
	flush := func() {
		if n == 0 {
			return
		}
		rt.started.Add(uint64(n))
		ing.staged.Add(int64(n))
		if ing.ring.PushN(buf[:n]) {
			n = 0
			return
		}
		ing.staged.Add(-int64(n))
		rt.mu.Lock()
		rt.drainIngressLocked()
		for i := 0; i < n; i++ {
			it := buf[i]
			_, err := rt.armIngressFallbackLocked(it.t, it.ticks, it.wall)
			if err == nil {
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			timers[idx[i]] = nil
			if err == ErrDraining || err == ErrRuntimeClosed {
				// Refuse the rest of the chunk; the caller loop stops
				// creating more.
				for j := i + 1; j < n; j++ {
					rt.started.Add(^uint64(0))
					rt.recycleIngressTimer(buf[j].t)
					timers[idx[j]] = nil
				}
				fenced = true
				break
			}
		}
		rt.mu.Unlock()
		n = 0
	}
	for i, q := range reqs {
		if q.Fn == nil {
			if firstErr == nil {
				firstErr = ErrNilCallback
			}
			continue
		}
		var t *Timer
		if chain != nil {
			t, chain = chain, chain.free
			t.free = nil
		} else {
			t = rt.newTimer()
		}
		t.fn, t.ch = q.Fn, nil
		t.prio, t.retries, t.tag = PriorityNormal, 0, 0
		q.Opt.apply(t)
		lc := t.lc.Load()&^lcStateMask | ingStaged
		t.lc.Store(lc)
		timers[i] = t
		buf[n] = intent{
			t: t, op: opSchedule, lc: lc,
			ticks: rt.wall.TicksFor(q.After), wall: wallTicks,
		}
		earliest = min(earliest, wallTicks+buf[n].ticks)
		idx[n] = i
		n++
		if n == batchChunk {
			flush()
			if fenced {
				for j := i + 1; j < len(reqs); j++ {
					timers[j] = nil
				}
				rt.releaseTimerChain(chain)
				rt.wakeForStaged(earliest)
				return timers, firstErr
			}
		}
	}
	flush()
	rt.wakeForStaged(earliest)
	rt.releaseTimerChain(chain)
	return timers, firstErr
}

// StopBatch cancels every (non-nil) timer in one call, amortizing the
// lock and free-list traffic, and reports how many cancellations were
// accepted. On a synchronous runtime that count is exact (each counted
// timer was cancelled before firing, under a single lock acquisition);
// on a WithIngress runtime it counts committed cancellations with the
// same advisory semantics as Stop. Timers belonging to a different
// runtime (a mixed batch) are stopped through their own runtime,
// one by one.
func (rt *Runtime) StopBatch(timers []*Timer) int {
	if rt.ing != nil {
		return rt.stopBatchIngress(timers)
	}
	accepted := 0
	locked := false
	for _, t := range timers {
		if t == nil {
			continue
		}
		if t.rt != rt {
			if locked {
				rt.mu.Unlock()
				locked = false
			}
			if t.Stop() {
				accepted++
			}
			continue
		}
		if !locked {
			rt.mu.Lock()
			if rt.closed {
				rt.mu.Unlock()
				return accepted
			}
			locked = true
		}
		if rt.ops.StopEntry(&t.ent) == nil {
			rt.stopped++
			rt.traceRecord(TraceStopped, t.ID(), t.prio, rt.fac.Now(), t.deadline, 0)
			rt.journalStopped(t)
			rt.recycleTimer(t)
			accepted++
		}
	}
	if locked {
		rt.mu.Unlock()
	}
	return accepted
}

// stopBatchIngress commits the batch's cancellations. Stops of
// still-staged timers settle right here — one CAS each, the freed
// objects spliced back onto the free list in a single acquisition and
// the counters folded into two atomic adds for the whole batch — and
// only stops of armed timers stage ring intents, in chunks of one
// block reservation each.
func (rt *Runtime) stopBatchIngress(timers []*Timer) int {
	ing := rt.ing
	open := ing.gate.Enter()
	if open {
		defer ing.gate.Leave()
	}
	accepted := 0
	var (
		buf                  [batchChunk]intent
		n                    int
		freedHead, freedTail *Timer
		nStaged              int64
	)
	flush := func() {
		if n == 0 {
			return
		}
		if !open || !ing.ring.PushN(buf[:n]) {
			rt.mu.Lock()
			for _, it := range buf[:n] {
				rt.stopIngressLocked(it.t)
			}
			rt.mu.Unlock()
		}
		n = 0
	}
	for _, t := range timers {
		if t == nil {
			continue
		}
		if t.rt != rt {
			flush()
			if t.Stop() {
				accepted++
			}
			continue
		}
		for {
			cur := t.lc.Load()
			if s := cur & lcStateMask; s == ingStaged {
				if !t.lc.CompareAndSwap(cur, (cur+lcIncar)&^lcStateMask) {
					continue
				}
				// Settled: the dead schedule intent drops at apply time.
				t.fn, t.ch = nil, nil
				t.free, freedHead = freedHead, t
				if freedTail == nil {
					freedTail = t
				}
				nStaged++
				accepted++
				rt.traceRecord(TraceStopped, 0, t.prio, Tick(rt.lastTick.Load()), 0, 0)
				if rt.journal != nil && t.tag != 0 {
					rt.journal.TimerStopped(t.tag, 0) // never armed
				}
			} else if s == ingArmed {
				if !t.lc.CompareAndSwap(cur, cur&^lcStateMask|ingStopping) {
					continue
				}
				accepted++
				buf[n] = intent{t: t, op: opStop}
				n++
				if n == len(buf) {
					flush()
				}
			}
			break
		}
	}
	flush()
	if nStaged > 0 {
		ing.staged.Add(-nStaged)
		rt.stoppedStaged.Add(uint64(nStaged))
		rt.freeMu.Lock()
		freedTail.free = rt.freeTimers
		rt.freeTimers = freedHead
		rt.freeMu.Unlock()
	}
	rt.wakeForStaged(math.MaxInt64)
	return accepted
}

// ResetReq is one entry in a ResetBatch call.
type ResetReq struct {
	// T is the timer to re-arm; nil entries are skipped.
	T *Timer
	// After is the new delay; it rounds up to a whole tick, minimum one.
	After time.Duration
}

// ResetBatch re-arms every (non-nil) timer to fire After from now in
// one call — the retransmission-window idiom at batch scale (every
// packet in a send burst Resets its timeout) — and reports how many
// re-arms were accepted. On a synchronous runtime the whole batch
// applies under a single lock acquisition and the count is exact; on a
// WithIngress runtime resets stage as first-class ring intents (the
// same one-block-reservation chunks ScheduleBatch uses) and the count
// carries Reset's advisory semantics: an accepted reset is guaranteed
// to apply unless a concurrently committed stop supersedes it. A timer
// whose stop is already committed is refused (counted out, first such
// refusal reported as ErrStopPending); timers from another runtime are
// reset through their own runtime one by one. On a draining or closed
// runtime remaining resets are refused — the timers keep their current
// deadlines and the drain policy disposes of them.
func (rt *Runtime) ResetBatch(reqs []ResetReq) (int, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	if rt.ing != nil {
		return rt.resetBatchIngress(reqs)
	}
	wallTicks := rt.wall.TicksAt(rt.now())
	accepted := 0
	var firstErr error
	earliest := int64(math.MaxInt64)
	locked := false
	unlock := func() {
		if locked {
			rt.mu.Unlock()
			locked = false
		}
	}
	for _, q := range reqs {
		if q.T == nil {
			continue
		}
		if q.T.rt != rt {
			unlock()
			if _, err := q.T.Reset(q.After); err == nil {
				accepted++
			} else if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !locked {
			rt.mu.Lock()
			locked = true
			if rt.closed || rt.draining {
				err := ErrRuntimeClosed
				if !rt.closed {
					err = ErrDraining
				}
				rt.mu.Unlock()
				rt.wakeFor(earliest)
				return accepted, err
			}
		}
		ticks := rt.stretch(rt.wall.TicksFor(q.After), wallTicks)
		if _, err := rt.rearmLocked(q.T, Tick(ticks)); err != nil {
			// Refused, as a synchronous Reset would be: the timer keeps
			// its deadline.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		accepted++
		earliest = min(earliest, int64(q.T.deadline))
	}
	unlock()
	rt.wakeFor(earliest)
	return accepted, firstErr
}

// resetBatchIngress stages the batch's resets as ring intents in
// chunks, mirroring stopBatchIngress: each chunk is one PushN block
// reservation, and a chunk that cannot stage (gate closed during a
// drain, or ring full) is applied synchronously under one lock
// acquisition through the same per-item path a single Reset's fallback
// uses.
func (rt *Runtime) resetBatchIngress(reqs []ResetReq) (int, error) {
	ing := rt.ing
	wallTicks := rt.wall.TicksAt(rt.now())
	open := ing.gate.Enter()
	if open {
		defer ing.gate.Leave()
	}
	accepted := 0
	var (
		firstErr error
		buf      [batchChunk]intent
		n        int
		fenced   bool
		// earliest is the batch's earliest requested deadline; a reset
		// the fallback applies stretched lands no earlier.
		earliest = int64(math.MaxInt64)
	)
	flush := func() {
		if n == 0 {
			return
		}
		if open && ing.ring.PushN(buf[:n]) {
			accepted += n
			n = 0
			return
		}
		rt.mu.Lock()
		rt.drainIngressLocked()
		for i := 0; i < n; i++ {
			_, err := rt.resetIngressLocked(buf[i].t, buf[i].ticks, buf[i].wall)
			if err == nil {
				accepted++
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			if err == ErrDraining || err == ErrRuntimeClosed {
				// Refuse the rest: the timers keep their deadlines and
				// the drain policy disposes of them.
				fenced = true
				break
			}
		}
		rt.mu.Unlock()
		n = 0
	}
	for _, q := range reqs {
		if q.T == nil {
			continue
		}
		if q.T.rt != rt {
			flush()
			if fenced {
				break
			}
			if _, err := q.T.Reset(q.After); err == nil {
				accepted++
			} else if firstErr == nil {
				firstErr = err
			}
			continue
		}
		cur := q.T.lc.Load()
		if s := cur & lcStateMask; s != ingStaged && s != ingArmed {
			// A committed stop owns this timer: definitive refusal, the
			// same outcome a single Reset reports.
			if firstErr == nil {
				firstErr = ErrStopPending
			}
			continue
		}
		// As with a single staged reset: the intent expects the
		// incarnation ARMED at apply time — its own schedule intent
		// applies first by FIFO order, and a concurrent stop voids it.
		buf[n] = intent{
			t: q.T, op: opReset, lc: cur&^lcStateMask | ingArmed,
			ticks: rt.wall.TicksFor(q.After), wall: wallTicks,
		}
		earliest = min(earliest, wallTicks+buf[n].ticks)
		n++
		if n == batchChunk {
			flush()
			if fenced {
				break
			}
		}
	}
	if !fenced {
		flush()
	}
	rt.wakeForStaged(earliest)
	return accepted, firstErr
}

// ScheduleBatch schedules the whole batch on one shard (round-robin),
// so the batch pays one admission regardless of shard count and its
// timers fire in deadline order relative to each other. Spreading load
// across shards happens batch-by-batch, not request-by-request.
func (s *Sharded) ScheduleBatch(reqs []Req) ([]*Timer, error) {
	return s.pick().ScheduleBatch(reqs)
}

// StopBatch cancels every (non-nil) timer, forwarding each run of
// same-shard timers as one batch; a batch returned by ScheduleBatch is
// a single run. Reports how many cancellations were accepted.
func (s *Sharded) StopBatch(timers []*Timer) int {
	accepted := 0
	for i := 0; i < len(timers); {
		if timers[i] == nil {
			i++
			continue
		}
		rt := timers[i].rt
		j := i + 1
		for j < len(timers) && (timers[j] == nil || timers[j].rt == rt) {
			j++
		}
		accepted += rt.StopBatch(timers[i:j])
		i = j
	}
	return accepted
}

// ResetBatch re-arms every (non-nil) timer, forwarding each run of
// same-shard timers as one batch; a batch returned by ScheduleBatch is
// a single run. Reports how many re-arms were accepted and the first
// per-timer refusal.
func (s *Sharded) ResetBatch(reqs []ResetReq) (int, error) {
	accepted := 0
	var firstErr error
	for i := 0; i < len(reqs); {
		if reqs[i].T == nil {
			i++
			continue
		}
		rt := reqs[i].T.rt
		j := i + 1
		for j < len(reqs) && (reqs[j].T == nil || reqs[j].T.rt == rt) {
			j++
		}
		a, err := rt.ResetBatch(reqs[i:j])
		accepted += a
		if err != nil && firstErr == nil {
			firstErr = err
		}
		i = j
	}
	return accepted, firstErr
}
