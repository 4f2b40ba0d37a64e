package main

import (
	"math/rand"
	"sort"
	"time"
)

// opKind is one kind of request the write connection sends.
type opKind uint8

const (
	opSchedule opKind = iota // POST /v1/schedule, one timer
	opStop                   // POST /v1/stop
	opBatch                  // POST /v1/schedule-batch, timers sharing one deadline
	opReset                  // POST /v1/reset, a batch of resident ids
	opRenew                  // POST /v1/lease/renew
)

func (k opKind) String() string {
	return [...]string{"schedule", "stop", "batch", "reset", "renew"}[k]
}

// resetItem moves one resident timer's deadline to now+afterMS.
type resetItem struct {
	id      uint64
	afterMS int64
}

// op is one planned write. at is its due offset from the start of the
// phase; the open loop sends it then, the closed loop ignores it.
type op struct {
	at   time.Duration
	kind opKind
	// slot is the generator's index for the timer a schedule creates or a
	// stop cancels; a batch creates slots [slot, slot+n).
	slot int
	n    int
	// afterMS is a schedule's relative deadline.
	afterMS int64
	// deadlineOff is a batch's absolute deadline as an offset from the
	// window start; zero means afterMS applies to every timer instead.
	deadlineOff time.Duration
	// lease indexes the run's granted leases; -1 means none.
	lease  int
	resets []resetItem
}

// timerOps is how many timer operations the op carries: one per
// schedule, stop or reset of one timer. Renewals carry none.
func (o *op) timerOps() int {
	switch o.kind {
	case opSchedule, opStop:
		return 1
	case opBatch:
		return o.n
	case opReset:
		return len(o.resets)
	}
	return 0
}

// generator produces a workload's seeded operation stream. ops is called
// once for the open-loop window and once for the closed-loop phase; the
// generator keeps its state (timer slots, live resident ids) between
// the two, so the phases never disagree about what exists.
type generator interface {
	ops(start, dur time.Duration, closed bool) []op
}

// inputs is everything a run sends, fixed by the workload and the seed:
// the resident population's deadline offsets, the open-loop window's
// ops and the closed-loop phase's ops.
type inputs struct {
	resident       []time.Duration
	window, closed []op
}

func makeInputs(w *workload, seed int64, window time.Duration) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{resident: residentDeadlines(rng, w.resident)}
	gen := w.newGen(rng)
	in.window = gen.ops(0, window, false)
	// The closed loop sends a fixed number of requests, so the WAL bytes
	// it writes are fixed too and a size-triggered compaction either
	// always or never lands in it.
	for at := window; len(in.closed) < w.closedReqs; at += time.Second {
		in.closed = append(in.closed, gen.ops(at, time.Second, true)...)
	}
	in.closed = in.closed[:w.closedReqs]
	return in
}

func sortOps(ops []op) []op {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// gap draws the next inter-arrival gap at rate per second: the mean gap
// ±25%. Arrivals are paced rather than Poisson so that two requests
// rarely queue on the one write connection: queueing would amplify the
// box's own speed swings into the latencies, and the bursts of a Poisson
// stream are not what the workloads set out to measure.
func gap(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration((0.75 + rng.Float64()/2) / rate * float64(time.Second))
}

func uniformMS(rng *rand.Rand, lo, hi int64) int64 { return lo + rng.Int63n(hi-lo+1) }

// admitGen is request-timeout traffic: each request arms a timer that is
// almost always stopped long before its deadline.
type admitGen struct {
	rng      *rand.Rand
	rate     float64 // write requests per second, stops included
	leases   int
	nextSlot int
}

// Stop fraction and the two deadline ranges of the admit workload. Long
// deadlines lie beyond any run, so a long timer firing is a violation.
const (
	admitStopFrac  = 0.8
	admitShortLoMS = 200
	admitShortHiMS = 1000
	admitLongLoMS  = 600_000
	admitLongHiMS  = 1_200_000
)

func (g *admitGen) ops(start, dur time.Duration, closed bool) []op {
	end := start + dur
	schedRate := g.rate / (1 + admitStopFrac)
	var out []op
	for at := start + gap(g.rng, schedRate); at < end; at += gap(g.rng, schedRate) {
		slot := g.nextSlot
		g.nextSlot++
		lease := g.rng.Intn(g.leases)
		if g.rng.Float64() < admitStopFrac {
			out = append(out, op{at: at, kind: opSchedule, slot: slot, lease: lease,
				afterMS: uniformMS(g.rng, admitLongLoMS, admitLongHiMS)})
			stopAt := at + time.Duration(uniformMS(g.rng, 100, 2000))*time.Millisecond
			if stopAt < end {
				out = append(out, op{at: stopAt, kind: opStop, slot: slot, lease: -1})
			}
			continue
		}
		out = append(out, op{at: at, kind: opSchedule, slot: slot, lease: lease,
			afterMS: uniformMS(g.rng, admitShortLoMS, admitShortHiMS)})
	}
	// Every lease is renewed once a second, staggered across the second.
	for l := 0; l < g.leases; l++ {
		for at := start + time.Duration(l)*time.Second/time.Duration(g.leases); at < end; at += time.Second {
			out = append(out, op{at: at, kind: opRenew, lease: l})
		}
	}
	return sortOps(out)
}

// stormGen is co-expiring bursts: every storm is size timers that share
// one absolute deadline, admitted in batches one second ahead, in the
// quiet part of the gap after an earlier storm, so admission and expiry
// processing do not collide by chance.
type stormGen struct {
	rng       *rand.Rand
	perSecond int // storms per second
	size      int // timers per storm
	batch     int // timers per request
	nextSlot  int
}

// stormFarMS is the deadline of closed-loop batches: beyond any run, so
// the closed loop measures admission without overflowing the fired ring.
const stormFarMS = 3_600_000

func (g *stormGen) ops(start, dur time.Duration, closed bool) []op {
	var out []op
	every := time.Second / time.Duration(g.perSecond)
	for k, at := 0, start+time.Second; at <= start+dur; k, at = k+1, at+every {
		// Storm k lands (k mod 10)/10 of a tick past the grid of the
		// first: twd's tick phase is fixed per boot, and a run must see
		// every phase equally or its lag shifts by up to a tick.
		instant := at + time.Duration(k%10)*twdGranularity/10 + time.Duration(g.rng.Int63n(int64(twdGranularity/10)))
		// The storm due one second earlier has been delivered by half the
		// gap after it; this storm's batches go out evenly over the gap's
		// second half.
		lo := at - time.Second + every/2
		span := every * 2 / 5
		step := span / time.Duration((g.size+g.batch-1)/g.batch)
		for t, left := lo, g.size; left > 0; t, left = t+step, left-g.batch {
			n := min(g.batch, left)
			o := op{at: t + time.Duration(g.rng.Int63n(int64(step/4))), kind: opBatch,
				slot: g.nextSlot, n: n, lease: -1, deadlineOff: instant}
			if closed {
				o.deadlineOff, o.afterMS = 0, stormFarMS
			}
			g.nextSlot += n
			out = append(out, o)
		}
	}
	return sortOps(out)
}

// resetGen is keepalive traffic over a resident population: each request
// pushes a batch of random live timers an hour out, except one whose
// connection died, which is reset to expire soon and is never touched
// again. New connections trickle in as batches of fresh keepalives.
type resetGen struct {
	rng      *rand.Rand
	rate     float64 // reset requests per second
	batch    int     // ids per request
	alive    []uint64
	nextSlot int
}

// resetArrivals is the rate of new-connection batches, each of batch
// fresh keepalive timers, beside the resets.
const resetArrivals = 10

func newResetGen(rng *rand.Rand, rate float64, batch, resident int) *resetGen {
	alive := make([]uint64, resident)
	for i := range alive {
		alive[i] = uint64(i + 1)
	}
	return &resetGen{rng: rng, rate: rate, batch: batch, alive: alive}
}

func (g *resetGen) ops(start, dur time.Duration, closed bool) []op {
	var out []op
	for at := start + gap(g.rng, resetArrivals); at < start+dur; at += gap(g.rng, resetArrivals) {
		out = append(out, op{at: at, kind: opBatch, slot: g.nextSlot, n: g.batch, lease: -1,
			afterMS: uniformMS(g.rng, 3_600_000, 7_200_000)})
		g.nextSlot += g.batch
	}
	for at := start + gap(g.rng, g.rate); at < start+dur; at += gap(g.rng, g.rate) {
		items := make([]resetItem, 0, g.batch)
		seen := make(map[uint64]bool, g.batch)
		for len(items) < g.batch {
			i := g.rng.Intn(len(g.alive))
			id := g.alive[i]
			if seen[id] {
				continue
			}
			seen[id] = true
			if len(items) == 0 {
				// The dead connection: retire the id from the live set so
				// no later request resets it again.
				g.alive[i] = g.alive[len(g.alive)-1]
				g.alive = g.alive[:len(g.alive)-1]
				items = append(items, resetItem{id: id, afterMS: uniformMS(g.rng, admitShortLoMS, admitShortHiMS)})
				continue
			}
			items = append(items, resetItem{id: id, afterMS: uniformMS(g.rng, 3_600_000, 7_200_000)})
		}
		out = append(out, op{at: at, kind: opReset, lease: -1, resets: items})
	}
	return sortOps(out)
}
