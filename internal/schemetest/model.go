package schemetest

import (
	"fmt"
	"sort"
	"strings"

	"timingwheels/internal/core"
	"timingwheels/internal/dist"
)

// This file is the differential model checker: a small operation
// language (schedule / stop / reset / tick), a generator and a
// byte-decoder for scripts in that language, an executor that runs one
// script against a Subject and the map oracle in lockstep, and a
// delta-debugging shrinker that reduces a diverging script to a
// minimal reproducer. The conformance suite above checks each scheme
// against the oracle through one fixed driver; the model checker
// additionally abstracts the SUBJECT, so the same scripts run against
// raw facilities, the Runtime's per-op path and the batch APIs — any
// two of which diverging on what fires when is a bug in one of them.

// OpKind enumerates the model checker's operation language.
type OpKind uint8

// Operations.
const (
	// OpSchedule starts a new timer (the executor assigns keys 0,1,2,…
	// in script order) due in Interval ticks.
	OpSchedule OpKind = iota
	// OpStop cancels a live timer. Key is resolved positionally against
	// the executor's sorted live-key set, so scripts stay meaningful
	// under shrinking. A stopped timer's key is retired: the public
	// contract is that a Timer is not touched after a stop.
	OpStop
	// OpReset re-arms a live or fired timer Interval ticks from now.
	OpReset
	// OpTick advances virtual time by one tick and compares the fired
	// sets.
	OpTick
)

// ModelOp is one operation of a model script.
type ModelOp struct {
	Kind OpKind
	// Key selects the stop/reset target (resolved modulo the live-key
	// count); unused for schedule and tick.
	Key int
	// Interval is the schedule/reset interval in ticks (clamped into
	// [1, MaxModelInterval] at execution).
	Interval int64
}

// Script is a sequence of model operations.
type Script []ModelOp

// MaxModelInterval bounds intervals the executor will issue, keeping
// scripts valid for every bounded scheme in the factory table.
const MaxModelInterval = 64

func (op ModelOp) String() string {
	switch op.Kind {
	case OpSchedule:
		return fmt.Sprintf("schedule(%d)", op.Interval)
	case OpStop:
		return fmt.Sprintf("stop(#%d)", op.Key)
	case OpReset:
		return fmt.Sprintf("reset(#%d, %d)", op.Key, op.Interval)
	case OpTick:
		return "tick"
	default:
		return fmt.Sprintf("op(%d)", op.Kind)
	}
}

// String renders a script compactly, collapsing tick runs.
func (s Script) String() string {
	var b strings.Builder
	ticks := 0
	flush := func() {
		if ticks > 0 {
			fmt.Fprintf(&b, "tick×%d; ", ticks)
			ticks = 0
		}
	}
	for _, op := range s {
		if op.Kind == OpTick {
			ticks++
			continue
		}
		flush()
		b.WriteString(op.String())
		b.WriteString("; ")
	}
	flush()
	return strings.TrimSuffix(b.String(), "; ")
}

// Mix weights the generator's operation choices. The zero value is
// replaced by DefaultMix.
type Mix struct {
	Schedule, Stop, Reset, Tick int
}

// DefaultMix reproduces the generator's historical weights: scripts
// from GenScript are byte-identical to those of earlier revisions for
// the same seed.
var DefaultMix = Mix{Schedule: 4, Stop: 2, Reset: 1, Tick: 3}

// ResetStormMix models the retransmit-timer regime the grouped sorting
// queue targets: half of all operations are Resets, so update-in-place
// lifecycle bugs (a reset re-arming a fired timer, double-fires, ledger
// drift) surface and shrink quickly.
var ResetStormMix = Mix{Schedule: 2, Stop: 1, Reset: 6, Tick: 3}

// GenScript generates a random script with the default mix: ops
// weighted operations followed by enough ticks to drain every timer the
// script could leave pending.
func GenScript(seed uint64, ops int, maxInterval int64) Script {
	return GenScriptMix(seed, ops, maxInterval, DefaultMix)
}

// GenScriptMix is GenScript with a configurable operation mix. A stop
// or reset drawn with no timer alive degrades to a tick, mirroring the
// executor's tolerance for dead keys.
func GenScriptMix(seed uint64, ops int, maxInterval int64, mix Mix) Script {
	if maxInterval < 1 || maxInterval > MaxModelInterval {
		maxInterval = MaxModelInterval
	}
	if mix == (Mix{}) {
		mix = DefaultMix
	}
	total := mix.Schedule + mix.Stop + mix.Reset + mix.Tick
	rng := dist.NewRNG(seed)
	s := make(Script, 0, ops+2*int(maxInterval)+4)
	live := 0
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(total); {
		case r < mix.Schedule:
			s = append(s, ModelOp{Kind: OpSchedule, Interval: 1 + int64(rng.Intn(int(maxInterval)))})
			live++
		case r < mix.Schedule+mix.Stop && live > 0:
			s = append(s, ModelOp{Kind: OpStop, Key: rng.Intn(live * 2)})
			live-- // approximate: fired keys keep the set larger
		case r < mix.Schedule+mix.Stop+mix.Reset && live > 0:
			s = append(s, ModelOp{Kind: OpReset, Key: rng.Intn(live * 2), Interval: 1 + int64(rng.Intn(int(maxInterval)))})
		default:
			s = append(s, ModelOp{Kind: OpTick})
		}
	}
	for i := int64(0); i < 2*maxInterval+4; i++ {
		s = append(s, ModelOp{Kind: OpTick})
	}
	return s
}

// DecodeScript derives a script from raw fuzzer bytes, two bytes per
// operation, then appends the drain ticks. Every byte string decodes to
// a valid script.
func DecodeScript(data []byte) Script {
	s := make(Script, 0, len(data)/2+2*MaxModelInterval+4)
	for i := 0; i+1 < len(data); i += 2 {
		sel, arg := data[i], data[i+1]
		switch sel % 8 {
		case 0, 1, 2:
			s = append(s, ModelOp{Kind: OpSchedule, Interval: int64(arg)})
		case 3:
			s = append(s, ModelOp{Kind: OpStop, Key: int(arg)})
		case 4:
			s = append(s, ModelOp{Kind: OpReset, Key: int(sel) >> 3, Interval: int64(arg)})
		default:
			s = append(s, ModelOp{Kind: OpTick})
		}
	}
	for i := 0; i < 2*MaxModelInterval+4; i++ {
		s = append(s, ModelOp{Kind: OpTick})
	}
	return s
}

// Subject is one implementation under differential test. Key
// bookkeeping is the subject's own (handles, *Timer maps); the executor
// guarantees Schedule is called exactly once per key and Stop/Reset
// only for keys previously scheduled (and not yet stopped) — a key may
// have fired already, which the subject must tolerate.
type Subject interface {
	Name() string
	// Exact reports whether per-op Stop/Reset results are comparable to
	// the oracle. Batch subjects (results are aggregate counts) return
	// false; their fired sets and pending counts are still checked
	// exactly.
	Exact() bool
	Schedule(key int, interval int64) error
	// Stop cancels key's timer, reporting whether it was (observed)
	// pending.
	Stop(key int) bool
	// Reset re-arms key's timer, reporting whether it was still pending.
	Reset(key int, interval int64) bool
	// Tick advances one tick and returns the keys fired by it, in firing
	// order. The executor compares fired SETS per tick: cross-tick
	// ordering is thereby exact, while same-tick ordering is left to
	// each scheme (slot chains and heaps legitimately order same-tick
	// batches differently).
	Tick() []int
	// Len reports pending timers; the executor checks it against the
	// oracle after every tick (the quiescent instants on a staged path).
	Len() int
	Close()
}

// Divergence describes the first disagreement between a subject and the
// oracle on one script.
type Divergence struct {
	Subject string
	// OpIndex is the position in the script at which the disagreement
	// surfaced.
	OpIndex int
	Op      ModelOp
	Detail  string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("%s diverged at op %d (%s): %s", d.Subject, d.OpIndex, d.Op, d.Detail)
}

// clampInterval maps any generated interval into the valid range.
func clampInterval(iv int64) int64 {
	if iv < 1 {
		return 1
	}
	if iv > MaxModelInterval {
		return MaxModelInterval
	}
	return iv
}

// Reset re-arms timer k (pending or not) interval ticks from now,
// reporting whether it was pending — the oracle side of Timer.Reset.
func (o *Oracle) Reset(k int, interval core.Tick) bool {
	_, was := o.pending[k]
	o.pending[k] = o.now + interval
	return was
}

// CheckScript runs one script against a fresh subject and the oracle in
// lockstep and returns the first divergence (nil if the subject
// conforms). Schedule errors are reported as divergences too: the
// executor never issues an invalid schedule, so a refusal is itself a
// disagreement with the oracle, which refuses nothing.
func CheckScript(mk func() Subject, script Script) *Divergence {
	sub := mk()
	defer sub.Close()
	oracle := NewOracle()
	// live holds keys eligible for stop/reset: scheduled and not yet
	// stopped. Fired keys remain (reset-after-fire is a meaningful,
	// path-divergence-prone case); stopped keys are retired per the
	// public contract.
	live := make(map[int]bool)
	var liveSorted []int
	dirty := false
	nextKey := 0

	resolve := func(sel int) (int, bool) {
		if len(live) == 0 {
			return 0, false
		}
		if dirty {
			liveSorted = liveSorted[:0]
			for k := range live {
				liveSorted = append(liveSorted, k)
			}
			sort.Ints(liveSorted)
			dirty = false
		}
		return liveSorted[sel%len(liveSorted)], true
	}

	for i, op := range script {
		switch op.Kind {
		case OpSchedule:
			iv := clampInterval(op.Interval)
			k := nextKey
			nextKey++
			if err := sub.Schedule(k, iv); err != nil {
				return &Divergence{sub.Name(), i, op, fmt.Sprintf("Schedule(#%d, %d): %v", k, iv, err)}
			}
			oracle.Start(k, core.Tick(iv))
			live[k] = true
			dirty = true
		case OpStop:
			k, ok := resolve(op.Key)
			if !ok {
				continue
			}
			got := sub.Stop(k)
			want := oracle.Stop(k)
			delete(live, k)
			dirty = true
			if sub.Exact() && got != want {
				return &Divergence{sub.Name(), i, op, fmt.Sprintf("Stop(#%d) = %v, oracle %v", k, got, want)}
			}
		case OpReset:
			k, ok := resolve(op.Key)
			if !ok {
				continue
			}
			iv := clampInterval(op.Interval)
			got := sub.Reset(k, iv)
			want := oracle.Reset(k, core.Tick(iv))
			if sub.Exact() && got != want {
				return &Divergence{sub.Name(), i, op, fmt.Sprintf("Reset(#%d, %d) = %v, oracle %v", k, iv, got, want)}
			}
		case OpTick:
			fired := sub.Tick()
			want := oracle.Tick()
			if d := diffFired(fired, want); d != "" {
				return &Divergence{sub.Name(), i, op, fmt.Sprintf("tick %d: %s", oracle.now, d)}
			}
			if got := sub.Len(); got != oracle.Len() {
				return &Divergence{sub.Name(), i, op, fmt.Sprintf("tick %d: Len=%d, oracle %d", oracle.now, got, oracle.Len())}
			}
		}
	}
	return nil
}

// diffFired compares one tick's fired keys (as a set) against the
// oracle's, returning "" on agreement.
func diffFired(fired []int, want map[int]bool) string {
	if len(fired) != len(want) {
		return fmt.Sprintf("fired %d timers %v, oracle fired %d %v", len(fired), fired, len(want), keysOf(want))
	}
	seen := make(map[int]bool, len(fired))
	for _, k := range fired {
		if !want[k] {
			return fmt.Sprintf("fired #%d, oracle did not (oracle set %v)", k, keysOf(want))
		}
		if seen[k] {
			return fmt.Sprintf("fired #%d twice in one tick", k)
		}
		seen[k] = true
	}
	return ""
}

func keysOf(m map[int]bool) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// ShrinkScript delta-debugs a diverging script down to a locally
// minimal reproducer: it repeatedly deletes chunks (halving the chunk
// size down to single ops) as long as the reduced script still
// diverges. Each probe runs on a fresh subject, so shrinking is valid
// for stateful subjects. Scripts that do not diverge are returned
// unchanged.
func ShrinkScript(mk func() Subject, script Script) Script {
	fails := func(s Script) bool { return CheckScript(mk, s) != nil }
	if !fails(script) {
		return script
	}
	cur := script
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur); {
			cand := make(Script, 0, len(cur)-chunk)
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[start+chunk:]...)
			if fails(cand) {
				cur = cand
			} else {
				start += chunk
			}
		}
	}
	return cur
}

// RunModel checks one subject against a script, shrinking on failure so
// the test log carries a minimal reproducer.
func RunModel(t testingT, mk func() Subject, script Script) {
	t.Helper()
	d := CheckScript(mk, script)
	if d == nil {
		return
	}
	min := ShrinkScript(mk, script)
	t.Fatalf("%v\nminimal reproducer (%d ops): %s\nfirst failure there: %v",
		d, len(min), min, CheckScript(mk, min))
}

// testingT is the slice of *testing.T RunModel needs (it keeps model.go
// importable without "testing" for tooling; *testing.T and *testing.F
// wrappers both satisfy it).
type testingT interface {
	Helper()
	Fatalf(format string, args ...any)
}
