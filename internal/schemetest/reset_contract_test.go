package schemetest

// The Reset contract at the Runtime layer differs by admission mode,
// and the difference is documented rather than accidental — these tests
// pin it for both the default hashed wheel and the grouped sorting
// queue (whose in-place core.Resetter path must not change the
// observable semantics):
//
//   - Synchronous runtimes report wasPending EXACTLY, and a Reset of a
//     timer whose action already ran re-arms it regardless (the
//     retransmission idiom: the report is advisory history, the re-arm
//     is unconditional).
//   - WithIngress runtimes re-arm identically but report ADVISORY
//     wasPending: a Reset of a timer whose action already ran still
//     reports true (no stop was committed against the incarnation), so
//     the asymmetry is confined to the report. Only a committed Stop
//     is refused definitively, with ErrStopPending and no re-arm.
//   - ResetBatch counts accepted re-arms exactly even while the
//     admissions are still staged in the ingress ring, and a
//     committed-stopped timer in the batch is refused (ErrStopPending)
//     without disturbing its neighbors.

import (
	"errors"
	"testing"
	"time"

	"timingwheels/timer"
)

// contractSchemes returns the scheme flavors the Reset contract is
// pinned on: the default Scheme 6 wheel and the grouped sorting queue,
// which both reset in place but place entries by different rules.
func contractSchemes() map[string][]timer.RuntimeOption {
	return map[string][]timer.RuntimeOption{
		"wheel": nil,
		"gsq": {timer.WithSchemeFactory(func() timer.Scheme {
			return timer.NewGroupedQueue(32, 8)
		})},
	}
}

// newContractRuntime builds a manual-driver runtime on a hand-driven
// clock and returns it with a step function that advances one tick per
// call and polls.
func newContractRuntime(t *testing.T, opts ...timer.RuntimeOption) (*timer.Runtime, func(n int)) {
	t.Helper()
	clk := &modelClock{now: time.Unix(1_000_000, 0)}
	rt := timer.NewRuntime(append([]timer.RuntimeOption{
		timer.WithGranularity(time.Millisecond),
		timer.WithNowFunc(clk.Now),
		timer.WithManualDriver(),
	}, opts...)...)
	step := func(n int) {
		for i := 0; i < n; i++ {
			clk.advance(time.Millisecond)
			rt.Poll()
		}
	}
	return rt, step
}

func TestResetContractSyncExact(t *testing.T) {
	for name, opts := range contractSchemes() {
		t.Run(name, func(t *testing.T) {
			rt, step := newContractRuntime(t, opts...)
			defer rt.Close()

			fired := 0
			tm, err := rt.AfterFunc(5*time.Millisecond, func() { fired++ })
			if err != nil {
				t.Fatalf("AfterFunc: %v", err)
			}

			// Pending timer: exact wasPending=true, fires at the NEW deadline.
			if wasPending, err := tm.Reset(3 * time.Millisecond); err != nil || !wasPending {
				t.Fatalf("Reset(pending) = (%v, %v), want (true, nil)", wasPending, err)
			}
			step(3)
			if fired != 1 {
				t.Fatalf("fired=%d after reset deadline, want 1", fired)
			}

			// Fired timer: exact wasPending=false — and the re-arm still
			// happens (the documented unconditional re-arm).
			if wasPending, err := tm.Reset(2 * time.Millisecond); err != nil || wasPending {
				t.Fatalf("Reset(fired) = (%v, %v), want (false, nil)", wasPending, err)
			}
			step(2)
			if fired != 2 {
				t.Fatalf("fired=%d after re-arm of fired timer, want 2", fired)
			}

			rt.Close()
			if _, err := tm.Reset(time.Millisecond); !errors.Is(err, timer.ErrRuntimeClosed) {
				t.Fatalf("Reset after Close: err=%v, want ErrRuntimeClosed", err)
			}
		})
	}
}

func TestResetContractIngressAdvisory(t *testing.T) {
	for name, opts := range contractSchemes() {
		t.Run(name, func(t *testing.T) {
			rt, step := newContractRuntime(t,
				append([]timer.RuntimeOption{timer.WithIngress(0)}, opts...)...)
			defer rt.Close()

			fired := 0
			tm, err := rt.AfterFunc(5*time.Millisecond, func() { fired++ })
			if err != nil {
				t.Fatalf("AfterFunc: %v", err)
			}

			// Live incarnation: advisory wasPending=true, fires at the new
			// deadline once the intent applies.
			if wasPending, err := tm.Reset(3 * time.Millisecond); err != nil || !wasPending {
				t.Fatalf("Reset(live) = (%v, %v), want (true, nil)", wasPending, err)
			}
			step(3)
			if fired != 1 {
				t.Fatalf("fired=%d after reset deadline, want 1", fired)
			}

			// Fired timer: re-arms exactly like the synchronous runtime,
			// but the report is ADVISORY — wasPending=true, because no
			// stop was committed against this incarnation, where the
			// synchronous runtime reports the exact false. The asymmetry
			// is confined to the report; behavior is identical.
			if wasPending, err := tm.Reset(2 * time.Millisecond); err != nil || !wasPending {
				t.Fatalf("Reset(fired) = (%v, %v), want advisory (true, nil)", wasPending, err)
			}
			step(2)
			if fired != 2 {
				t.Fatalf("fired=%d after re-arm of fired timer, want 2", fired)
			}

			// Committed stop: same definitive refusal.
			tm2, err := rt.AfterFunc(50*time.Millisecond, func() { fired++ })
			if err != nil {
				t.Fatalf("AfterFunc: %v", err)
			}
			rt.Poll() // apply the schedule intent so the stop commits against ARMED
			if !tm2.Stop() {
				t.Fatal("Stop of a live timer reported false")
			}
			if _, err := tm2.Reset(5 * time.Millisecond); !errors.Is(err, timer.ErrStopPending) {
				t.Fatalf("Reset after committed stop: err=%v, want ErrStopPending", err)
			}
			step(60)
			if fired != 2 {
				t.Fatalf("fired=%d, want 2 (stopped timer must stay stopped)", fired)
			}
		})
	}
}

func TestResetBatchCountExactUnderStaging(t *testing.T) {
	for name, opts := range contractSchemes() {
		t.Run(name, func(t *testing.T) {
			rt, step := newContractRuntime(t,
				append([]timer.RuntimeOption{timer.WithIngress(0)}, opts...)...)
			defer rt.Close()

			const k = 5
			fired := 0
			reqs := make([]timer.ResetReq, 0, k)
			for i := 0; i < k; i++ {
				tm, err := rt.AfterFunc(50*time.Millisecond, func() { fired++ })
				if err != nil {
					t.Fatalf("AfterFunc: %v", err)
				}
				reqs = append(reqs, timer.ResetReq{T: tm, After: 10 * time.Millisecond})
			}

			// All k admissions are still STAGED in the ingress ring; the
			// batch reset must nonetheless count exactly k accepted and
			// re-arm every one at the new deadline.
			if n, err := rt.ResetBatch(reqs); n != k || err != nil {
				t.Fatalf("ResetBatch(staged) = (%d, %v), want (%d, nil)", n, err, k)
			}
			step(10)
			if fired != k {
				t.Fatalf("fired=%d at the batch deadline, want %d", fired, k)
			}
			if out := rt.Outstanding(); out != 0 {
				t.Fatalf("Outstanding=%d after batch fired, want 0", out)
			}

			// One committed-stopped timer in the batch: accepted drops to
			// k-1 and the first error is the definitive ErrStopPending.
			fired = 0
			reqs = reqs[:0]
			for i := 0; i < k; i++ {
				tm, err := rt.AfterFunc(50*time.Millisecond, func() { fired++ })
				if err != nil {
					t.Fatalf("AfterFunc: %v", err)
				}
				reqs = append(reqs, timer.ResetReq{T: tm, After: 10 * time.Millisecond})
			}
			rt.Poll() // arm them so the stop commits against ARMED
			if !reqs[2].T.Stop() {
				t.Fatal("Stop of a live timer reported false")
			}
			n, err := rt.ResetBatch(reqs)
			if n != k-1 || !errors.Is(err, timer.ErrStopPending) {
				t.Fatalf("ResetBatch(one stopped) = (%d, %v), want (%d, ErrStopPending)", n, err, k-1)
			}
			step(10)
			if fired != k-1 {
				t.Fatalf("fired=%d, want %d (stopped timer must not re-arm)", fired, k-1)
			}
		})
	}
}
