// Command resilient demonstrates the hardened Runtime: panic isolation,
// the slow-callback watchdog, a retry-with-backoff loop built on
// AfterFunc, and a graceful drain that fires in-window timers before
// shutdown — the failure modes a production timer facility absorbs
// without stalling its tick path.
//
//	go run ./examples/resilient
package main

import (
	"context"
	"fmt"
	"time"

	"timingwheels/timer"
)

func main() {
	rt := timer.NewRuntime(
		timer.WithGranularity(time.Millisecond),
		// Contain panicking expiry actions and log them.
		timer.WithPanicHandler(func(r any) {
			fmt.Printf("panic contained: %v\n", r)
		}),
		// Flag expiry actions that overstay their budget.
		timer.WithCallbackBudget(5*time.Millisecond),
		timer.WithSlowCallbackHandler(func(elapsed time.Duration) {
			fmt.Printf("slow callback flagged (ran %v, budget 5ms)\n",
				elapsed.Round(time.Millisecond))
		}),
	)
	defer rt.Close()

	// 1. Panic isolation: a poisoned job does not take down the driver,
	// and the jobs scheduled after it still run.
	fmt.Println("-- panic isolation --")
	ok := make(chan struct{})
	must(rt.AfterFunc(2*time.Millisecond, func() { panic("poisoned job") }))
	must(rt.AfterFunc(10*time.Millisecond, func() { close(ok) }))
	<-ok
	fmt.Println("job after the panic still ran")

	// 2. Slow-callback watchdog: a job that blocks past its budget is
	// recorded.
	fmt.Println("-- slow-callback watchdog --")
	slow := make(chan struct{})
	must(rt.AfterFunc(2*time.Millisecond, func() {
		time.Sleep(20 * time.Millisecond)
		close(slow)
	}))
	<-slow
	waitFor(func() bool { return rt.Health().SlowCallbacks > 0 })

	// 3. Retry with backoff: each failed attempt reschedules itself with
	// a doubled delay — the retransmission-timer idiom composed with the
	// hardening above (a panicking attempt would be contained too).
	fmt.Println("-- retry with backoff --")
	succeeded := make(chan struct{})
	attempts := 0
	var attempt func()
	attempt = func() {
		attempts++
		if attempts < 4 { // the flaky operation fails three times
			backoff := time.Duration(1<<attempts) * 2 * time.Millisecond
			fmt.Printf("attempt %d failed; retrying in %v\n", attempts, backoff)
			must(rt.AfterFunc(backoff, attempt))
			return
		}
		fmt.Printf("attempt %d succeeded\n", attempts)
		close(succeeded)
	}
	must(rt.AfterFunc(2*time.Millisecond, attempt))
	<-succeeded

	// 4. Graceful drain: stop admitting, give outstanding timers a grace
	// window to fire at their natural deadlines, cancel the rest, and get
	// an exact account. (Close is simply Drain with zero grace.)
	fmt.Println("-- graceful drain --")
	must(rt.AfterFunc(10*time.Millisecond, func() {
		fmt.Println("in-window timer fired during drain")
	}))
	must(rt.AfterFunc(time.Hour, func() {
		fmt.Println("BUG: timer beyond the window fired")
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	report, err := rt.Drain(ctx, timer.DrainWaitUntilDeadline)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s\n", report)
	fmt.Printf("final health: %s\n", rt.Health())
}

// must discards the timer handle and aborts on scheduling errors.
func must(_ *timer.Timer, err error) {
	if err != nil {
		panic(err)
	}
}

// waitFor polls a condition with a coarse deadline.
func waitFor(cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !cond() {
		time.Sleep(2 * time.Millisecond)
	}
}
