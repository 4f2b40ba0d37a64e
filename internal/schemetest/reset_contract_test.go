package schemetest

// The Reset contract at the Runtime layer — these tests pin it for both
// the default hashed wheel and the grouped sorting queue (whose
// in-place core.Resetter path must not change the observable
// semantics):
//
//   - Reset reports wasPending EXACTLY, and a Reset of a timer whose
//     action already ran re-arms it regardless (the retransmission
//     idiom: the report is history, the re-arm is unconditional).
//   - ResetBatch counts accepted re-arms exactly, pending and fired
//     timers alike.
//
// WithIngress once staged admissions in a ring and relaxed the report
// to an advisory one; it is a no-op now, and a runtime built with it is
// held to the same exact contract.

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
			checkResetContractExact(t, opts...)
		})
	}
}

// TestResetContractIngressAdvisory: the advisory report WithIngress
// once allowed (wasPending=true for a timer whose action already ran)
// is gone with the staging ring. A runtime built with the option
// reports exactly, re-arms exactly as the synchronous runtime does, and
// a Stop still wins over the deadline it cancelled.
func TestResetContractIngressAdvisory(t *testing.T) {
	for name, opts := range contractSchemes() {
		t.Run(name, func(t *testing.T) {
			opts := append([]timer.RuntimeOption{timer.WithIngress(0)}, opts...)
			checkResetContractExact(t, opts...)

			rt, step := newContractRuntime(t, opts...)
			defer rt.Close()
			fired := 0
			tm, err := rt.AfterFunc(5*time.Millisecond, func() { fired++ })
			if err != nil {
				t.Fatalf("AfterFunc: %v", err)
			}
			if wasPending, err := tm.Reset(3 * time.Millisecond); err != nil || !wasPending {
				t.Fatalf("Reset before any poll = (%v, %v), want (true, nil)", wasPending, err)
			}
			if !tm.Stop() {
				t.Fatal("Stop of a re-armed timer reported false")
			}
			step(10)
			if fired != 0 {
				t.Fatalf("fired=%d, want 0 (the stop must win)", fired)
			}
		})
	}
}

// checkResetContractExact runs the exact Reset contract on a runtime
// built with opts: pending and fired timers alike, then Close.
func checkResetContractExact(t *testing.T, opts ...timer.RuntimeOption) {
	t.Helper()
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
}

// TestResetBatchCountExactUnderStaging runs ResetBatch on a runtime
// built with WithIngress, where the admissions once sat staged in the
// ring when the batch arrived: the counts must be exact.
func TestResetBatchCountExactUnderStaging(t *testing.T) {
	for name, opts := range contractSchemes() {
		t.Run(name, func(t *testing.T) {
			rt, step := newContractRuntime(t,
				append([]timer.RuntimeOption{timer.WithIngress(0)}, opts...)...)
			defer rt.Close()

			const k = 5
			fired := 0
			reqs := make([]timer.ResetReq, 0, k+1)
			for i := 0; i < k; i++ {
				tm, err := rt.AfterFunc(50*time.Millisecond, func() { fired++ })
				if err != nil {
					t.Fatalf("AfterFunc: %v", err)
				}
				reqs = append(reqs, timer.ResetReq{T: tm, After: 10 * time.Millisecond})
			}

			// Every pending timer is re-armed in place and counted.
			if n, err := rt.ResetBatch(reqs); n != k || err != nil {
				t.Fatalf("ResetBatch(pending) = (%d, %v), want (%d, nil)", n, err, k)
			}
			step(10)
			if fired != k {
				t.Fatalf("fired=%d at the batch deadline, want %d", fired, k)
			}
			if out := rt.Outstanding(); out != 0 {
				t.Fatalf("Outstanding=%d after batch fired, want 0", out)
			}

			// The same timers, now fired, plus a nil entry: every fired
			// timer re-arms (and counts), the nil entry is skipped.
			fired = 0
			reqs = append(reqs, timer.ResetReq{})
			if n, err := rt.ResetBatch(reqs); n != k || err != nil {
				t.Fatalf("ResetBatch(fired) = (%d, %v), want (%d, nil)", n, err, k)
			}
			if out := rt.Outstanding(); out != k {
				t.Fatalf("Outstanding=%d after re-arming fired timers, want %d", out, k)
			}
			step(10)
			if fired != k {
				t.Fatalf("fired=%d, want %d", fired, k)
			}
		})
	}
}
