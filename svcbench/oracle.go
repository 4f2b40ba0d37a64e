package main

import (
	"fmt"
	"time"
)

// settleGrace is how long after its deadline a timer may take to reach
// the client before the oracle calls it lost.
const settleGrace = 5 * time.Second

// expectedFires counts the timers the run obliges twd to deliver: every
// acked, unstopped timer due before farNS, and every short reset.
func (r *runner) expectedFires(farNS int64) (n int, latest int64) {
	for _, s := range r.slots {
		if s.id != 0 && !s.stopped && s.deadline < farNS {
			n++
			latest = max(latest, s.deadline)
		}
	}
	for _, sr := range r.resets {
		n++
		latest = max(latest, sr.earliest+int64(admitShortHiMS*time.Millisecond))
	}
	return n, latest
}

// awaitFires waits until the long poll has received want events or the
// latest deadline is settleGrace past.
func (r *runner) awaitFires(want int, latest int64) {
	limit := time.Unix(0, latest).Add(settleGrace)
	for r.received() < want && time.Now().Before(limit) {
		time.Sleep(20 * time.Millisecond)
	}
}

// check is the exactly-once oracle. Every acked timer either fires once,
// no earlier than its deadline, or was stopped with stopped:true and
// never fires; nothing else fires; the fired feed has no cursor gap.
// Violations are counted into r.failed. The returned error reports a
// ledger that does not close — a failed run, whatever the counts say.
func (r *runner) check(nowNS int64, h0, h1 health) error {
	r.mu.Lock()
	fires := append([]fireObs(nil), r.fires...)
	gaps := r.gaps
	r.mu.Unlock()

	byID := make(map[uint64][]fireObs, len(fires))
	for _, f := range fires {
		byID[f.ID] = append(byID[f.ID], f)
	}
	if gaps > 0 {
		r.fail("events lost to a /v1/fired cursor gap", int(gaps))
	}
	known := make(map[uint64]bool, len(r.slots)+len(r.resets))
	acked, stopped := 0, 0
	for _, s := range r.slots {
		if s.id == 0 {
			continue
		}
		acked++
		known[s.id] = true
		got := byID[s.id]
		switch {
		case s.stopped:
			stopped++
			if len(got) > 0 {
				r.fail("fired after an acked stop", 1)
			}
		case len(got) > 0 || s.deadline+int64(settleGrace) <= nowNS:
			r.judge(got, s.deadline)
		}
	}
	for id, sr := range r.resets {
		known[id] = true
		r.judge(byID[id], sr.earliest)
	}
	for id, got := range byID {
		if !known[id] {
			r.fail("fired a timer nobody made due", len(got))
		}
	}

	// The daemon's own ledger, and its agreement with the client's books.
	if h1.Scheduled != h1.Fired+h1.Cancelled+h1.Outstanding {
		return fmt.Errorf("ledger open: scheduled %d != fired %d + cancelled %d + outstanding %d",
			h1.Scheduled, h1.Fired, h1.Cancelled, h1.Outstanding)
	}
	if d := h1.Scheduled - h0.Scheduled; d != uint64(acked) {
		return fmt.Errorf("ledger: daemon scheduled %d timers, client holds %d acks", d, acked)
	}
	if d := h1.Cancelled - h0.Cancelled; d != uint64(stopped) {
		return fmt.Errorf("ledger: daemon cancelled %d timers, client holds %d acked stops", d, stopped)
	}
	if d := h1.Fired - h0.Fired; d != uint64(len(fires))+gaps {
		return fmt.Errorf("ledger: daemon fired %d timers, client received %d (+%d lost)", d, len(fires), gaps)
	}
	return nil
}

// judge checks a timer that had to fire: exactly one delivery, no
// earlier than notBefore less one tick. twd counts a delay in whole
// ticks from the start of the current tick, so a timer armed mid-tick
// can fire up to one granularity before its wall-clock deadline; those
// deliveries are counted in r.early, not as violations.
func (r *runner) judge(got []fireObs, notBefore int64) {
	switch {
	case len(got) == 0:
		r.fail("due timer never delivered", 1)
	case len(got) > 1:
		r.fail("delivered more than once", 1)
	case got[0].FiredNS < notBefore-int64(twdGranularity):
		r.fail("delivered more than a tick before its deadline", 1)
	default:
		r.judged++
		if got[0].FiredNS < notBefore {
			r.early++
		}
	}
}
