package timer

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// jEvent is one recorded Journal callback.
type jEvent struct {
	kind string // "armed" | "stopped" | "fired"
	tag  uint64
	id   ID
	lag  int64
}

// recordingJournal captures every callback in order; safe for
// concurrent use (polls may run on several goroutines).
type recordingJournal struct {
	mu     sync.Mutex
	events []jEvent
}

func (j *recordingJournal) add(e jEvent) {
	j.mu.Lock()
	j.events = append(j.events, e)
	j.mu.Unlock()
}

func (j *recordingJournal) TimerArmed(tag uint64, id ID, _ Tick) {
	j.add(jEvent{kind: "armed", tag: tag, id: id})
}
func (j *recordingJournal) TimerStopped(tag uint64, id ID) {
	j.add(jEvent{kind: "stopped", tag: tag, id: id})
}
func (j *recordingJournal) TimersFired(fires []Fire) {
	for _, f := range fires {
		j.add(jEvent{kind: "fired", tag: f.Tag, id: f.ID, lag: f.LagNS})
	}
}

// byTag returns the event kinds recorded for one tag, in order.
func (j *recordingJournal) byTag(tag uint64) []jEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []jEvent
	for _, e := range j.events {
		if e.tag == tag {
			out = append(out, e)
		}
	}
	return out
}

func kinds(events []jEvent) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.kind
	}
	return out
}

func sameKinds(got []jEvent, want ...string) bool {
	if len(got) != len(want) {
		return false
	}
	for i, e := range got {
		if e.kind != want[i] {
			return false
		}
	}
	return true
}

func TestJournalSyncLifecycle(t *testing.T) {
	j := &recordingJournal{}
	rt, fc := newManualRuntime(t, WithJournal(j))

	// Tag 1: arm then fire.
	if _, err := rt.AfterFunc(30*time.Millisecond, func() {}, WithTag(1)); err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	// Tag 2: arm then stop.
	tm2, err := rt.AfterFunc(time.Second, func() {}, WithTag(2))
	if err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	// Untagged: must never appear.
	if _, err := rt.AfterFunc(30*time.Millisecond, func() {}); err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}

	if ev := j.byTag(1); !sameKinds(ev, "armed") {
		t.Fatalf("tag 1 before fire: %v, want [armed]", kinds(ev))
	}
	if !tm2.Stop() {
		t.Fatal("Stop refused")
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()

	if ev := j.byTag(1); !sameKinds(ev, "armed", "fired") {
		t.Fatalf("tag 1: %v, want [armed fired]", kinds(ev))
	}
	if ev := j.byTag(2); !sameKinds(ev, "armed", "stopped") {
		t.Fatalf("tag 2: %v, want [armed stopped]", kinds(ev))
	}
	if ev := j.byTag(0); len(ev) != 0 {
		t.Fatalf("untagged timer journaled: %v", kinds(ev))
	}
}

func TestJournalFiredLag(t *testing.T) {
	j := &recordingJournal{}
	rt, fc := newManualRuntime(t, WithJournal(j))
	if _, err := rt.AfterFunc(10*time.Millisecond, func() {}, WithTag(9)); err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	// Poll 40ms late: the delivery is 3 ticks (30ms) past the deadline.
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	ev := j.byTag(9)
	if !sameKinds(ev, "armed", "fired") {
		t.Fatalf("tag 9: %v, want [armed fired]", kinds(ev))
	}
	if got := ev[1].lag; got != int64(30*time.Millisecond) {
		t.Fatalf("fired lag = %dns, want %dns", got, int64(30*time.Millisecond))
	}
}

func TestJournalResetReportsRearm(t *testing.T) {
	j := &recordingJournal{}
	rt, fc := newManualRuntime(t, WithJournal(j))
	tm, err := rt.AfterFunc(30*time.Millisecond, func() {}, WithTag(5))
	if err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	if _, err := tm.Reset(50 * time.Millisecond); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	fc.Advance(50 * time.Millisecond)
	rt.Poll()
	if ev := j.byTag(5); !sameKinds(ev, "armed", "armed", "fired") {
		t.Fatalf("tag 5: %v, want [armed armed fired]", kinds(ev))
	}
}

// TestJournalIngressArmAtApplyTime pins when TimerArmed runs on a
// runtime built with WithIngress: the option stages nothing, so the
// admission applies inside the scheduling call and is journaled there,
// before any poll.
func TestJournalIngressArmAtApplyTime(t *testing.T) {
	j := &recordingJournal{}
	rt, fc := newIngressRuntime(t, WithJournal(j))
	if _, err := rt.AfterFunc(20*time.Millisecond, func() {}, WithTag(3)); err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	if ev := j.byTag(3); !sameKinds(ev, "armed") {
		t.Fatalf("after the call: %v, want [armed]", kinds(ev))
	}
	rt.Poll()
	if ev := j.byTag(3); !sameKinds(ev, "armed") {
		t.Fatalf("after a poll short of the deadline: %v, want [armed]", kinds(ev))
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	if ev := j.byTag(3); !sameKinds(ev, "armed", "fired") {
		t.Fatalf("after fire: %v, want [armed fired]", kinds(ev))
	}
}

// TestJournalShedStagedAdmission covers the bounded-scheme refusal: an
// admission whose deadline is beyond the scheme's horizon is refused by
// the scheduling call itself, so it is never started and the journal
// records nothing for it.
func TestJournalShedStagedAdmission(t *testing.T) {
	j := &recordingJournal{}
	// Hierarchical 4x4: horizon 15 ticks = 150ms at 10ms granularity.
	rt, _ := newIngressRuntime(t, WithJournal(j),
		WithScheme(NewHierarchicalWheel([]int{4, 4}, MigrateAlways)))
	if _, err := rt.AfterFunc(time.Hour, func() {}, WithTag(6)); !errors.Is(err, ErrIntervalOutOfRange) {
		t.Fatalf("AfterFunc beyond the horizon: err=%v, want ErrIntervalOutOfRange", err)
	}
	rt.Poll()
	if ev := j.byTag(6); len(ev) != 0 {
		t.Fatalf("tag 6: %v, want nothing journaled", kinds(ev))
	}
	if started, _, _ := rt.Stats(); started != 0 {
		t.Fatalf("started=%d, want 0 (the refused admission never started)", started)
	}
	checkConservation(t, rt)
}

func TestResetBatchSync(t *testing.T) {
	rt, fc := newManualRuntime(t)
	fired := 0
	reqs := make([]Req, 5)
	for i := range reqs {
		reqs[i] = Req{After: 30 * time.Millisecond, Fn: func() { fired++ }}
	}
	timers, err := rt.ScheduleBatch(reqs)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	rr := make([]ResetReq, 0, len(timers)+1)
	rr = append(rr, ResetReq{}) // nil entry skipped
	for _, tm := range timers {
		rr = append(rr, ResetReq{T: tm, After: 50 * time.Millisecond})
	}
	n, err := rt.ResetBatch(rr)
	if err != nil || n != 5 {
		t.Fatalf("ResetBatch = (%d, %v), want (5, nil)", n, err)
	}
	// Old deadline (t=30ms) passes without firing.
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	if fired != 0 {
		t.Fatalf("fired=%d at the old deadline, want 0", fired)
	}
	// New deadline: 20ms + 50ms = t=70ms.
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	if fired != 5 {
		t.Fatalf("fired=%d, want 5", fired)
	}
	checkConservation(t, rt)
}

func TestResetBatchIngressArmed(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	var fired atomic.Int64
	reqs := make([]Req, 8)
	for i := range reqs {
		reqs[i] = Req{After: 30 * time.Millisecond, Fn: func() { fired.Add(1) }}
	}
	timers, err := rt.ScheduleBatch(reqs)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	rt.Poll()
	rr := make([]ResetReq, len(timers))
	for i, tm := range timers {
		rr[i] = ResetReq{T: tm, After: 60 * time.Millisecond}
	}
	n, err := rt.ResetBatch(rr)
	if err != nil || n != 8 {
		t.Fatalf("ResetBatch = (%d, %v), want (8, nil)", n, err)
	}
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 0 {
		t.Fatalf("fired=%d at the superseded deadline, want 0", fired.Load())
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 8 {
		t.Fatalf("fired=%d, want 8", fired.Load())
	}
	checkConservation(t, rt)
}

// TestResetBatchIngressStaged resets a batch before any poll has run:
// the batch must land every timer on the new deadline without
// double-arming.
func TestResetBatchIngressStaged(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	var fired atomic.Int64
	reqs := make([]Req, 8)
	for i := range reqs {
		reqs[i] = Req{After: 30 * time.Millisecond, Fn: func() { fired.Add(1) }}
	}
	timers, err := rt.ScheduleBatch(reqs)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	rr := make([]ResetReq, len(timers))
	for i, tm := range timers {
		rr[i] = ResetReq{T: tm, After: 60 * time.Millisecond}
	}
	if n, err := rt.ResetBatch(rr); err != nil || n != 8 {
		t.Fatalf("ResetBatch = (%d, %v), want (8, nil)", n, err)
	}
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 0 {
		t.Fatalf("fired=%d at the superseded deadline, want 0", fired.Load())
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 8 {
		t.Fatalf("fired=%d, want exactly 8 (no double-arm)", fired.Load())
	}
	fc.Advance(time.Second)
	rt.Poll()
	if fired.Load() != 8 {
		t.Fatalf("fired=%d after settling, want 8", fired.Load())
	}
	checkConservation(t, rt)
}

// TestResetBatchCountsRefusals: a re-arm the scheme refuses (beyond a
// bounded hierarchy's horizon) is not counted, is reported as the
// batch's error, and leaves its timer at the old deadline; the rest of
// the batch applies.
func TestResetBatchCountsRefusals(t *testing.T) {
	// Hierarchical 4x4: horizon 15 ticks = 150ms at 10ms granularity.
	rt, fc := newManualRuntime(t, WithScheme(NewHierarchicalWheel([]int{4, 4}, MigrateAlways)))
	var fired atomic.Int64
	tmFar, _ := rt.AfterFunc(30*time.Millisecond, func() { fired.Add(1) })
	tmNear, _ := rt.AfterFunc(30*time.Millisecond, func() { fired.Add(1) })
	n, err := rt.ResetBatch([]ResetReq{
		{T: tmFar, After: time.Hour},
		{T: tmNear, After: 60 * time.Millisecond},
	})
	if !errors.Is(err, ErrIntervalOutOfRange) || n != 1 {
		t.Fatalf("ResetBatch = (%d, %v), want (1, ErrIntervalOutOfRange)", n, err)
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 1 {
		t.Fatalf("fired=%d at the old deadline, want 1 (the refused re-arm)", fired.Load())
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 2 {
		t.Fatalf("fired=%d at the new deadline, want 2", fired.Load())
	}
	checkConservation(t, rt)
}

func TestResetBatchClosedRuntime(t *testing.T) {
	rt, _ := newManualRuntime(t)
	tm, _ := rt.AfterFunc(time.Second, func() {})
	rt.Close()
	if n, err := rt.ResetBatch([]ResetReq{{T: tm, After: time.Second}}); err != ErrRuntimeClosed || n != 0 {
		t.Fatalf("ResetBatch after Close = (%d, %v), want (0, ErrRuntimeClosed)", n, err)
	}
}

func TestResetBatchSharded(t *testing.T) {
	s := NewSharded(2, WithGranularity(time.Millisecond))
	defer s.Close()
	var fired atomic.Int64
	// One batch per shard so the runs interleave.
	reqs := make([]ResetReq, 0, 8)
	for i := 0; i < 8; i++ {
		tm, err := s.AfterFuncKey(uint64(i), time.Hour, func() { fired.Add(1) })
		if err != nil {
			t.Fatalf("AfterFuncKey: %v", err)
		}
		reqs = append(reqs, ResetReq{T: tm, After: 5 * time.Millisecond})
	}
	n, err := s.ResetBatch(reqs)
	if err != nil || n != 8 {
		t.Fatalf("Sharded.ResetBatch = (%d, %v), want (8, nil)", n, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() != 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fired.Load() != 8 {
		t.Fatalf("fired=%d after reset to 5ms, want 8", fired.Load())
	}
}

// TestDrainFireNowStagedBeyondHorizon: beyond-horizon admissions made
// just before Drain(DrainFireNow) are refused by their own calls and
// never enter the ledger, while the in-horizon ones made alongside them
// are all fired by the drain; nothing vanishes from either side.
func TestDrainFireNowStagedBeyondHorizon(t *testing.T) {
	// Hierarchical 4x4: horizon 15 ticks = 150ms at 10ms granularity.
	rt, _ := newIngressRuntime(t,
		WithScheme(NewHierarchicalWheel([]int{4, 4}, MigrateAlways)))
	var fired atomic.Int64
	for i := 0; i < 8; i++ {
		if _, err := rt.AfterFunc(time.Hour, func() { fired.Add(1) }); !errors.Is(err, ErrIntervalOutOfRange) {
			t.Fatalf("AfterFunc(1h): err=%v, want ErrIntervalOutOfRange", err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := rt.AfterFunc(50*time.Millisecond, func() { fired.Add(1) }); err != nil {
			t.Fatalf("AfterFunc(50ms): %v", err)
		}
	}
	// No Poll before the drain.
	rep, err := rt.Drain(context.Background(), DrainFireNow)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.Fired != 4 || fired.Load() != 4 {
		t.Fatalf("report.Fired=%d actual=%d, want 4/4", rep.Fired, fired.Load())
	}
	if rep.Cancelled != 0 {
		t.Fatalf("report.Cancelled=%d, want 0", rep.Cancelled)
	}
	if started, expired, _ := rt.Stats(); started != 4 || expired != 4 {
		t.Fatalf("started=%d expired=%d, want 4/4", started, expired)
	}
	checkConservation(t, rt)
}

// TestDrainFireNowRacesLateScheduleBatch is a race hammer: producers
// push ScheduleBatch, StopBatch and ResetBatch traffic — some of it
// beyond a bounded scheme's horizon, so some arms and re-arms are
// refused — while Drain(DrainFireNow) lands mid-batch. Every admitted
// timer must end up in exactly one ledger bucket.
func TestDrainFireNowRacesLateScheduleBatch(t *testing.T) {
	for round := 0; round < 4; round++ {
		// Horizon 63 ticks = 63ms at 1ms granularity; intervals are drawn
		// from [1ms, 100ms] so a fraction of arms are refused.
		rt := NewRuntime(
			WithGranularity(time.Millisecond),
			WithScheme(NewHierarchicalWheel([]int{8, 8}, MigrateAlways)),
		)
		const producers = 4
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*producers + p)))
				noop := func() {}
				for {
					reqs := make([]Req, 16)
					for i := range reqs {
						reqs[i] = Req{
							After: time.Duration(1+rng.Intn(100)) * time.Millisecond,
							Fn:    noop,
						}
					}
					timers, err := rt.ScheduleBatch(reqs)
					if err != nil && !errors.Is(err, ErrIntervalOutOfRange) {
						return // draining/closed: hammer over
					}
					switch rng.Intn(3) {
					case 0:
						rt.StopBatch(timers[:8])
					case 1:
						rr := make([]ResetReq, 8)
						for i := range rr {
							rr[i] = ResetReq{T: timers[i], After: time.Duration(1+rng.Intn(100)) * time.Millisecond}
						}
						rt.ResetBatch(rr)
					}
				}
			}(p)
		}
		time.Sleep(20 * time.Millisecond)
		// Drain lands while producers are mid-batch.
		if _, err := rt.Drain(context.Background(), DrainFireNow); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		wg.Wait()

		started, expired, stopped := rt.Stats()
		h := rt.Health()
		if started != expired+stopped+h.AbandonedOnClose {
			t.Fatalf("round %d ledger: started=%d != expired=%d + stopped=%d + abandoned=%d",
				round, started, expired, stopped, h.AbandonedOnClose)
		}
		if started == 0 {
			t.Fatalf("round %d admitted nothing; hammer is vacuous", round)
		}
	}
}

// batchJournal is a recordingJournal that keeps the fire batches
// themselves: TimersFired records each call's fires (copied — the slice
// is reused) and runs onBatch, if set, inside the call.
type batchJournal struct {
	recordingJournal
	batches [][]Fire
	onBatch func()
}

func (j *batchJournal) TimersFired(fires []Fire) {
	if j.onBatch != nil {
		j.onBatch()
	}
	j.mu.Lock()
	j.batches = append(j.batches, append([]Fire(nil), fires...))
	j.mu.Unlock()
}

// TestTimersFiredOneCallPerPoll: the tagged timers one poll delivers
// reach a FireBatcher in one TimersFired call, each fire with its own
// tag, ID and lag, after every callback of the poll ran and with no
// runtime lock held; untagged timers stay out of the batch.
func TestTimersFiredOneCallPerPoll(t *testing.T) {
	for _, ingress := range []bool{false, true} {
		t.Run(map[bool]string{false: "sync", true: "ingress"}[ingress], func(t *testing.T) {
			const n = 64
			j := &batchJournal{}
			opts := []RuntimeOption{WithJournal(j)}
			if ingress {
				opts = append(opts, WithIngress(0))
			}
			rt, fc := newFakeRuntime(t, opts...)
			ran := 0
			timers := make(map[uint64]*Timer, n)
			for i := 1; i <= n; i++ {
				var fn func()
				if i%2 == 0 {
					fn = func() { ran++ } // half run a callback, half are journal-only
				}
				tm, err := rt.Schedule(Tick(i), fn, WithTag(uint64(i)))
				if err != nil {
					t.Fatalf("Schedule(%d): %v", i, err)
				}
				timers[uint64(i)] = tm
			}
			if _, err := rt.AfterFunc(10*time.Millisecond, func() {}); err != nil { // untagged
				t.Fatal(err)
			}
			j.onBatch = func() {
				if ran != n/2 {
					t.Errorf("TimersFired ran after %d of %d callbacks", ran, n/2)
				}
				rt.Outstanding() // takes rt.mu: deadlocks if the poll still held it
			}
			fc.Advance(n * 10 * time.Millisecond)
			if got := rt.Poll(); got != n+1 {
				t.Fatalf("Poll fired %d, want %d", got, n+1)
			}
			if len(j.batches) != 1 || len(j.batches[0]) != n {
				t.Fatalf("TimersFired calls %d (first of %d fires), want 1 call of %d", len(j.batches), len(j.batches), n)
			}
			for _, f := range j.batches[0] {
				if tm := timers[f.Tag]; tm == nil || f.ID != tm.ID() {
					t.Fatalf("fire tag %d: id %d does not match its timer", f.Tag, f.ID)
				}
				if want := int64(n-int(f.Tag)) * int64(10*time.Millisecond); f.LagNS != want {
					t.Fatalf("fire tag %d: lag %dns, want %dns", f.Tag, f.LagNS, want)
				}
				delete(timers, f.Tag)
			}
			if len(timers) != 0 {
				t.Fatalf("%d tagged timers missing from the batch", len(timers))
			}
			fc.Advance(10 * time.Millisecond)
			rt.Poll()
			if len(j.batches) != 1 {
				t.Fatalf("a poll that fired no tagged timer called TimersFired")
			}
			checkConservation(t, rt)
		})
	}
}

// TestJournalOnlyTimer: a tagged request with a nil callback is
// accepted by every scheduling call and fires through the journal
// without running (or timing) a callback; an untagged nil callback, or
// one whose last tag is 0, is still refused with ErrNilCallback.
func TestJournalOnlyTimer(t *testing.T) {
	for _, ingress := range []bool{false, true} {
		t.Run(map[bool]string{false: "sync", true: "ingress"}[ingress], func(t *testing.T) {
			j := &batchJournal{}
			opts := []RuntimeOption{WithJournal(j)}
			if ingress {
				opts = append(opts, WithIngress(0))
			}
			rt, fc := newFakeRuntime(t, opts...)
			if _, err := rt.AfterFunc(10*time.Millisecond, nil, WithTag(1)); err != nil {
				t.Fatalf("tagged AfterFunc(nil): %v", err)
			}
			if _, err := rt.Schedule(1, nil, WithTag(9), WithTag(2)); err != nil {
				t.Fatalf("tagged Schedule(nil): %v", err)
			}
			timers, err := rt.ScheduleBatch([]Req{
				{After: 10 * time.Millisecond, Opt: WithTag(3)},
				{After: 10 * time.Millisecond},
				{After: 10 * time.Millisecond, Opt: WithTag(0)},
			})
			if !errors.Is(err, ErrNilCallback) || timers[0] == nil || timers[1] != nil || timers[2] != nil {
				t.Fatalf("ScheduleBatch: err=%v timers=%v; want tagged slot armed, untagged slots refused", err, timers)
			}
			if _, err := rt.AfterFunc(10*time.Millisecond, nil); !errors.Is(err, ErrNilCallback) {
				t.Fatalf("untagged AfterFunc(nil): err=%v, want ErrNilCallback", err)
			}
			if _, err := rt.Schedule(1, nil, WithTag(5), WithTag(0)); !errors.Is(err, ErrNilCallback) {
				t.Fatalf("Schedule(nil) retagged 0: err=%v, want ErrNilCallback", err)
			}
			fc.Advance(10 * time.Millisecond)
			rt.Poll()
			if len(j.batches) != 1 || len(j.batches[0]) != 3 {
				t.Fatalf("TimersFired batches %v, want one batch of tags 1-3", j.batches)
			}
			h := rt.Health()
			if h.Delivered != 3 {
				t.Fatalf("delivered=%d, want 3", h.Delivered)
			}
			if c := rt.Snapshot().CallbackNS.Count; c != 0 {
				t.Fatalf("journal-only timers recorded %d callback durations", c)
			}
			checkConservation(t, rt)
		})
	}
}

// TestTimersFiredConcurrentPolls: polls racing on several goroutines
// each hand their own batch to TimersFired — the pooled fire buffers
// are never shared — and every tagged timer is reported exactly once.
func TestTimersFiredConcurrentPolls(t *testing.T) {
	const producers, perProducer, pollers = 4, 500, 3
	j := &batchJournal{}
	rt, fc := newFakeRuntime(t, WithJournal(j))
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				tag := uint64(p*perProducer + i + 1)
				if _, err := rt.Schedule(Tick(1+i%7), nil, WithTag(tag)); err != nil {
					t.Errorf("Schedule: %v", err)
					return
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	for p := 0; p < pollers; p++ {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fc.Advance(10 * time.Millisecond)
				rt.Poll()
			}
		}()
	}
	wg.Wait()
	fc.Advance(time.Second)
	for rt.Outstanding() > 0 {
		rt.Poll()
	}
	close(stop)
	pollWG.Wait()
	seen := make(map[uint64]int)
	for _, b := range j.batches {
		for _, f := range b {
			seen[f.Tag]++
		}
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("%d tags fired, want %d", len(seen), producers*perProducer)
	}
	for tag, n := range seen {
		if n != 1 {
			t.Fatalf("tag %d reported %d times", tag, n)
		}
	}
	checkConservation(t, rt)
}
