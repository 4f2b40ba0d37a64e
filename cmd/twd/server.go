package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"timingwheels/clock"
	"timingwheels/internal/hdr"
	"timingwheels/internal/lease"
	"timingwheels/internal/replica"
	"timingwheels/internal/stagetrace"
	"timingwheels/internal/wal"
	"timingwheels/timer"
	"timingwheels/timer/telemetry"
)

// config is the daemon's tuning, filled from flags (main.go) or
// directly by tests.
type config struct {
	dir          string
	shards       int
	granularity  time.Duration
	syncEvery    int
	syncInterval time.Duration
	snapBytes    int64 // segment size that triggers compaction; 0 disables
	defaultTTL   time.Duration
	clk          clock.Clock // time source; nil means clock.Real{}

	// follow makes this node a standby replicating the primary at this
	// base URL; empty means primary.
	follow string
	// followWait is the stream long-poll bound a standby sends; 0 takes
	// the replica package default.
	followWait time.Duration
	// startFenced boots the node fenced: state is recovered but nothing
	// is armed and every write is refused. Set when a -peers probe found
	// a higher term — this node was deposed while it was down.
	startFenced bool
	// logger receives structured operational events (promotions, fences,
	// snapshot failures, slow admissions) with trace/timer/term fields;
	// nil means a text handler on os.Stderr.
	logger *slog.Logger
	// traceSlow is the stage-timeline total at or above which a request
	// is kept as a slow exemplar (and logged); 0 takes defaultTraceSlow.
	traceSlow time.Duration
	// facTrace arms the facility's flight recorder with this many events
	// per shard (served on /v1/trace?facility=1); 0 takes 4096.
	facTrace int
}

// firedEvent is one delivery, kept in a bounded ring for /v1/fired.
type firedEvent struct {
	Seq     uint64  `json:"seq"`
	ID      uint64  `json:"id"`
	FiredNS int64   `json:"fired_unix_ns"`
	LagNS   int64   `json:"lag_ns"`
	Payload payload `json:"payload,omitempty"`
	// tlSeq links back to the fire's stage timeline so the first
	// long-poll delivery can amend the push leg in; readyNS is when the
	// event's settle batch finished enqueueing, where the push leg
	// starts. Not serialized.
	tlSeq   uint64
	readyNS int64
}

// payload is a fired event's opaque payload: the State's own slice,
// shared rather than copied. Nothing writes to a payload once it is
// admitted, and the State drops its reference when the timer settles,
// so the fired ring can keep it as it is. It travels as a JSON string,
// the form it was admitted in.
type payload []byte

// MarshalText makes encoding/json write the payload as a string.
func (p payload) MarshalText() ([]byte, error) { return p, nil }

// UnmarshalText reads the payload back from a JSON string.
func (p *payload) UnmarshalText(b []byte) error {
	*p = append((*p)[:0], b...)
	return nil
}

// firedRingMax bounds the /v1/fired history.
const firedRingMax = 8192

// server is the daemon: a sharded timer facility fronted by HTTP, with
// every client-visible transition written ahead to the WAL.
//
// Lock order: s.mu is held for the in-memory tables (the live State,
// handles, traces, fired ring) and for every wal.Append — serializing
// appends against compaction, which seeds the snapshot from the State
// under the same lock. The WAL's and lease table's internal mutexes are
// leaves under s.mu; the lease table arms and re-arms watchdogs under
// its own, never under s.mu. The facility is never called with s.mu held, so
// no request waits on a runtime lock while holding the daemon's, and
// the driver's settle (which takes s.mu) never queues behind one. No
// fsync runs under s.mu
// or on the timer driver: wal.Commit happens outside s.mu on the
// request's goroutine, and the -sync-every count trigger for records
// nobody commits is handed to syncLoop.
type server struct {
	cfg config
	clk clock.Clock
	log *wal.Log
	fac *timer.Sharded
	// leases holds one watchdog per live lease and the timers each owns;
	// the leases themselves are the State's.
	leases *lease.Table

	nextID atomic.Uint64
	// The lease counters the State does not keep: renewals, and which
	// lease ends (one record op for both) were expiries or releases.
	leasesRenewed, leasesExpired, leasesReleased atomic.Uint64

	// Replication identity: role transitions serialize on role.mu;
	// roleNow/termNow are the lock-free read side.
	role        roleState
	roleNow     atomic.Int32
	termNow     atomic.Uint64
	replApplied atomic.Uint64
	logger      *slog.Logger

	// Stage tracing (see trace.go): stages aggregates per-request and
	// per-fire latency decompositions; applyLag is the standby's
	// fire-record apply lag; traceIDs mints correlation IDs; slowNS is
	// the slow-admission logging threshold.
	stages   *stagetrace.Recorder
	applyLag *hdr.Histogram
	traceIDs *traceIDs
	slowNS   int64

	mu sync.Mutex
	// state is the daemon's one record of which timers and leases exist
	// and of the ledger: the boot recovery's State, to which a primary
	// applies every record it appends and a standby's follower every
	// record it replicates. An ID in it with no handle is an admission
	// (or replay chunk) whose arm is still in flight.
	state   *wal.State
	handles map[uint64]*timer.Timer // armed, published timers
	// traces holds the admitting request's correlation ID, inherited by
	// the fire timeline. Replayed timers have none: the log carries no
	// trace, so correlation falls back to the durable timer ID.
	traces map[uint64]string
	// fired is the /v1/fired history, a circular buffer: it grows by
	// append up to firedRingMax, then each fire overwrites the oldest
	// slot, firedHead. Seqs are contiguous, so it holds exactly the seqs
	// (firedSeq-len(fired), firedSeq], oldest at firedHead.
	fired     []firedEvent
	firedHead int
	firedSeq  uint64
	// pushedSeq is the fired-ring watermark below which the push stage
	// has already been amended into fire timelines: only the first
	// delivery of an event counts as its push, no matter how many
	// long-pollers later replay it.
	pushedSeq uint64
	// firedNotify is the broadcast /v1/fired?wait= long-pollers block
	// on: made by the first poller to park, closed and cleared by the
	// next fire. nil while nobody waits.
	firedNotify chan struct{}
	// settleTraces holds, in ring order, the admission trace of each
	// event the settle batch in progress has put in the ring, for its
	// timeline; emptied when the batch's timelines are recorded.
	settleTraces []string
	draining     bool
	// unsynced counts appended records nobody commits (fire records and
	// lease-expiry or orphan cancels) since the last sync request; see
	// noteUnsyncedLocked.
	unsynced int

	// lateSettles counts fires that found their timer already cancelled.
	lateSettles uint64

	recovered *wal.RecoverResult

	// syncKick carries -sync-every's count trigger to syncLoop; it holds
	// one request. syncStop and syncDone stop the loop at shutdown.
	syncKick           chan struct{}
	syncStop, syncDone chan struct{}

	compacting atomic.Bool
	stopped    atomic.Bool // shutdown ran (it is one-shot)
}

// defaultGranularity is twd's tick. A 1 ms tick costs no more wakeups
// than a coarse one because the driver is expiry-driven: it sleeps until
// the hierarchy's next event, so it wakes about as often as timers fire
// or cascade, whatever the granularity.
const defaultGranularity = time.Millisecond

// schemeRadices size every shard's hierarchy to span 2^62 ticks, past
// each interval a runtime can arm: requests are capped at
// clock.MaxTicks (2^61), and the runtime's stretch of an interval by its
// facility's lag behind the wall clock saturates there. Seven 256-slot
// levels and a 64-slot top make 1856 slots; the 256-slot levels keep a
// coarse slot's cascade small (1-2 h timers sit in 65.5 s slots at
// 1 ms ticks).
var schemeRadices = []int{256, 256, 256, 256, 256, 256, 256, 64}

// newScheme builds one shard's facility: Scheme 7, whose NextExpiry lets
// the tickless driver sleep between events, with exact (always-migrate)
// expiry.
func newScheme() timer.Scheme {
	return timer.NewHierarchicalWheel(schemeRadices, timer.MigrateAlways)
}

// newServer opens the WAL in cfg.dir, replays it, and — on a primary —
// starts the facility with the recovered timers and leases re-armed. A
// standby (cfg.follow) arms nothing: it streams the primary's WAL into
// the same State and only arms it at promotion. A fenced boot
// (cfg.startFenced) arms nothing and never will.
func newServer(cfg config) (*server, error) {
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	if cfg.granularity <= 0 {
		cfg.granularity = defaultGranularity
	}
	if cfg.clk == nil {
		cfg.clk = clock.Real{}
	}
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if cfg.facTrace == 0 {
		cfg.facTrace = 4096
	}
	if cfg.defaultTTL <= 0 {
		cfg.defaultTTL = 30 * time.Second
	}
	// The WAL's own count trigger stays off (SyncEvery 0): it would fsync
	// inside Append, which twd calls under s.mu and, for fire records, on
	// the timer driver. twd counts the records nobody commits itself and
	// hands the sync to syncLoop.
	log, rec, err := wal.Open(cfg.dir, wal.Options{SyncInterval: cfg.syncInterval})
	if err != nil {
		return nil, fmt.Errorf("twd: open wal: %w", err)
	}
	s := &server{
		cfg:       cfg,
		clk:       cfg.clk,
		log:       log,
		state:     rec.State,
		handles:   make(map[uint64]*timer.Timer),
		traces:    make(map[uint64]string),
		syncKick:  make(chan struct{}, 1),
		syncStop:  make(chan struct{}),
		syncDone:  make(chan struct{}),
		recovered: rec,
		logger:    cfg.logger,
		stages:    newStageRecorder(cfg),
		applyLag:  hdr.New(),
		traceIDs:  newTraceIDs(),
		// The fired cursor continues from the replayed fire count, so a
		// client's /v1/fired `since` stays monotonic across restarts and
		// failovers instead of resetting to zero.
		firedSeq: rec.State.Fired,
	}
	slow := cfg.traceSlow
	if slow == 0 {
		slow = defaultTraceSlow
	}
	s.slowNS = slow.Nanoseconds()
	s.fac = timer.NewSharded(cfg.shards,
		timer.WithGranularity(cfg.granularity),
		timer.WithSchemeFactory(newScheme),
		timer.WithTickless(),
		timer.WithJournal(s),
		timer.WithClockSource(cfg.clk),
		// The facility's own flight recorder, wall-stamped so
		// /v1/trace?facility=1 lines up with the stage timelines.
		timer.WithTrace(cfg.facTrace),
	)
	s.leases = lease.NewTable(s.fac, lease.Config{OnExpire: s.onLeaseWatchdog})

	switch {
	case cfg.follow != "":
		s.roleNow.Store(int32(roleStandby))
		s.termNow.Store(loadTerm(cfg.dir))
		if err := s.startFollowing(); err != nil {
			s.fac.Close()
			log.Close()
			return nil, fmt.Errorf("twd: start following %s: %w", cfg.follow, err)
		}
	case cfg.startFenced:
		s.roleNow.Store(int32(roleFenced))
		s.termNow.Store(loadTerm(cfg.dir))
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
	default:
		s.roleNow.Store(int32(rolePrimary))
		term := loadTerm(cfg.dir)
		if term == 0 {
			term = 1
			if err := saveTerm(cfg.dir, term); err != nil {
				s.fac.Close()
				log.Close()
				return nil, fmt.Errorf("twd: persist term: %w", err)
			}
		}
		s.termNow.Store(term)
		if err := s.replay(); err != nil {
			s.fac.Close()
			log.Close()
			return nil, err
		}
	}
	// Started last, so the failure paths above have nothing to stop: a
	// replay's kick waits in syncKick's buffer until the loop runs.
	go s.syncLoop()
	return s, nil
}

// syncLoop runs the fsyncs of -sync-every's count trigger, so neither
// the timer driver nor any holder of s.mu waits on the disk. A failed
// sync fails the log, and every acked path then answers 503.
func (s *server) syncLoop() {
	defer close(s.syncDone)
	for {
		select {
		case <-s.syncStop:
			return
		case <-s.syncKick:
			s.log.Sync()
		}
	}
}

// noteUnsyncedLocked counts n appended records that nobody commits and,
// once cfg.syncEvery have accumulated, asks syncLoop for a sync. A kick
// that finds syncKick full is already covered: the queued request's
// Sync has not started yet, so it will include these records. Caller
// holds s.mu.
func (s *server) noteUnsyncedLocked(n int) {
	if s.cfg.syncEvery <= 0 {
		return
	}
	s.unsynced += n
	if s.unsynced < s.cfg.syncEvery {
		return
	}
	s.unsynced = 0
	select {
	case s.syncKick <- struct{}{}:
	default:
	}
}

// Journal implementation. TimerArmed and TimerStopped are no-ops: the
// daemon logs admissions, cancels, and resets in the handlers, before
// acking — the WAL record IS the ack's durability. Delivery, though,
// is the facility's own act, so it is observed here: twd's timers are
// journal-only (no callback), and the runtime hands each poll's fires
// to TimersFired (timer.FireBatcher) as one batch.

func (s *server) TimerArmed(uint64, timer.ID, timer.Tick) {}
func (s *server) TimerStopped(uint64, timer.ID)           {}

// TimersFired settles one poll's fires: the runtime calls it on the
// driver with no facility lock held, once the poll's deliveries are
// counted.
func (s *server) TimersFired(fires []timer.Fire) { s.settle(fires) }

// settle retires a batch of delivered timers under one s.mu
// hold, stamped with one clock read: per timer a WAL fire record, lease
// detach and fired-ring event, then one stage timeline each and one
// wake of the /v1/fired long-pollers, so a whole batch leaves on one
// page.
// Lag is computed against the durable wall-clock deadline, so a timer
// that fires on boot replay after downtime reports the true lag, not
// the re-arm's. A timer still awaiting its handle settles the same
// way; its publish skips it. A tag no longer in the State was settled
// by a concurrent cancel (the WAL cancel record wins) and is skipped.
func (s *server) settle(fires []timer.Fire) {
	now := s.clk.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.firedSeq
	for _, f := range fires {
		ts, ok := s.state.Timers[f.Tag]
		if !ok {
			s.lateSettles++
			continue
		}
		s.settleLocked(f.Tag, ts, now)
	}
	if s.firedSeq == first {
		return
	}
	s.traceSettledLocked(first, now)
	// Wake the parked /v1/fired long-pollers, if any: a close is a
	// broadcast.
	if s.firedNotify != nil {
		close(s.firedNotify)
		s.firedNotify = nil
	}
}

// traceSettledLocked records the stage timeline of each event a settle
// batch that began at startNS put in the ring past seq first: deadline
// -> wheel fire (the facility's lag) and fire -> ring enqueue. No event
// of a batch is visible to a long-poller before the batch's last one
// is enqueued, so enqueue spans the whole batch. The push leg is
// amended in by the long-poll delivery. Caller holds s.mu.
func (s *server) traceSettledLocked(first uint64, startNS int64) {
	readyNS := s.clk.Now().UnixNano()
	oldest := s.firedSeq - uint64(len(s.fired)) // newest seq no longer retained
	if first < oldest {
		first = oldest // a batch past the ring's size keeps only its tail
	}
	traces := s.settleTraces[len(s.settleTraces)-int(s.firedSeq-first):]
	for i := range traces {
		ev := &s.fired[(s.firedHead+int(first-oldest)+i)%len(s.fired)]
		tl := stagetrace.Timeline{Kind: "fire", Trace: traces[i], ID: ev.ID, Count: 1, StartNS: ev.FiredNS - ev.LagNS}
		tl.Add("fire", ev.LagNS)
		tl.Add("enqueue", readyNS-startNS)
		ev.tlSeq = s.stages.Record(tl)
		ev.readyNS = readyNS
	}
	clear(s.settleTraces)
	s.settleTraces = s.settleTraces[:0]
}

// settleLocked retires outstanding timer id as fired at nowNS, writing
// its fired-ring event; the caller records its timeline and wakes the
// long-pollers. Caller holds s.mu.
func (s *server) settleLocked(id uint64, ts wal.TimerState, nowNS int64) {
	trace, payload := s.traces[id], s.state.Payloads[id]
	delete(s.handles, id)
	delete(s.traces, id)
	if ts.Lease != 0 {
		s.leases.Detach(ts.Lease, id)
	}
	// Fire records ride the sync policy rather than an explicit commit:
	// one lost in a crash replays the timer, which re-fires — the
	// documented at-least-once window. The fire happened either way, so
	// the State retires the timer even if the append failed.
	rec := wal.Record{Op: wal.OpFire, Class: ts.Class, ID: id, Lease: ts.Lease, Deadline: ts.Deadline}
	s.log.Append(rec)
	s.state.Apply(rec)
	s.noteUnsyncedLocked(1)
	lag := nowNS - ts.Deadline
	if lag < 0 {
		lag = 0
	}
	s.firedSeq++
	ev := firedEvent{Seq: s.firedSeq, ID: id, FiredNS: nowNS, LagNS: lag, Payload: payload}
	s.settleTraces = append(s.settleTraces, trace)
	if len(s.fired) < firedRingMax {
		s.fired = append(s.fired, ev)
	} else {
		s.fired[s.firedHead] = ev
		s.firedHead = (s.firedHead + 1) % firedRingMax
	}
}

// cancelLocked logs and applies the cancel of outstanding timer id,
// returning its handle (nil if unpublished) to stop outside s.mu. The
// State retires the timer even if the append failed: an acked caller
// must then not report success. Caller holds s.mu.
func (s *server) cancelLocked(id uint64, ts wal.TimerState) (*timer.Timer, wal.LSN, error) {
	rec := wal.Record{Op: wal.OpCancel, Class: ts.Class, ID: id, Lease: ts.Lease}
	lsn, err := s.log.Append(rec)
	s.state.Apply(rec)
	tm := s.handles[id]
	delete(s.handles, id)
	delete(s.traces, id)
	return tm, lsn, err
}

// onLeaseWatchdog is the lease table's OnExpire hook, run on a
// delivery goroutine (no facility lock held) when lease id's watchdog
// fires. The State decides what the firing means: a lease it no longer
// holds was released or collected, and the firing is a no-op; one
// renewed since the arm has its watchdog re-armed in place for the
// remainder; any other expired — its client stopped heartbeating — and
// is ended and its timers garbage-collected, in the same s.mu hold as
// the check, so no renewal can land in between.
func (s *server) onLeaseWatchdog(id uint64) {
	s.mu.Lock()
	ls, live := s.state.Leases[id]
	if !live {
		s.mu.Unlock()
		return
	}
	if remain := time.Duration(ls.Expiry - s.clk.Now().UnixNano()); remain > 0 {
		s.mu.Unlock()
		s.leases.Rearm(id, remain)
		return
	}
	owned, wd := s.leases.Forget(id)
	victims := s.expireLeaseLocked(id, owned)
	s.mu.Unlock()
	s.fac.StopBatch(append(victims, wd))
}

// expireLeaseLocked ends lease id for missed heartbeats and cancels the
// timers of owned still outstanding, returning their handles to stop
// outside s.mu. Nobody waits on an ack, so the records ride the sync
// policy: one lost in a crash only replays the lease, and the expiry
// GCs it again. Caller holds s.mu.
func (s *server) expireLeaseLocked(id uint64, owned []uint64) []*timer.Timer {
	victims, cancelled, _, _ := s.endLeaseLocked(id, owned)
	s.noteUnsyncedLocked(1 + len(cancelled))
	s.leasesExpired.Add(1)
	return victims
}

// endLeaseLocked logs lease id's end (OpLeaseExpire, for an expiry and a
// release alike) and cancels every timer of owned that is still
// outstanding. It returns the cancelled handles (nil if unpublished) to
// stop outside s.mu, the cancelled IDs, and the LSN of the last record
// appended. The State ends the lease even if an append failed — the
// lease is gone either way — and the error then tells an acking caller
// not to report success: replay may resurrect some of the cancelled
// timers (the at-least-once window a 503 permits). Caller holds s.mu.
func (s *server) endLeaseLocked(id uint64, owned []uint64) ([]*timer.Timer, []uint64, wal.LSN, error) {
	rec := wal.Record{Op: wal.OpLeaseExpire, ID: id}
	lsn, werr := s.log.Append(rec)
	s.state.Apply(rec)
	victims := make([]*timer.Timer, 0, len(owned))
	cancelled := make([]uint64, 0, len(owned))
	for _, tid := range owned {
		ts, ok := s.state.Timers[tid]
		if !ok {
			continue // already fired or cancelled
		}
		tm, l, aerr := s.cancelLocked(tid, ts)
		if aerr != nil && werr == nil {
			werr = aerr
		}
		if aerr == nil {
			lsn = l
		}
		victims = append(victims, tm)
		cancelled = append(cancelled, tid)
	}
	return victims, cancelled, lsn, werr
}

// routes builds the daemon's mux. Write endpoints pass through the
// role/term guard; reads and replication are served in every role
// (a standby's stream serves its own WAL, enabling chained replicas).
// Every response carries the node's term via stampTerm.
func (s *server) routes() http.Handler {
	streamer := &replica.Streamer{Src: s.log, Term: s.currentTerm, MaxWait: maxStreamWait}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", s.writeGuard(s.handleSchedule))
	mux.HandleFunc("/v1/schedule-batch", s.writeGuard(s.handleScheduleBatch))
	mux.HandleFunc("/v1/stop", s.writeGuard(s.handleStop))
	mux.HandleFunc("/v1/reset", s.writeGuard(s.handleReset))
	mux.HandleFunc("/v1/lease", s.writeGuard(s.handleLeaseGrant))
	mux.HandleFunc("/v1/lease/renew", s.writeGuard(s.handleLeaseRenew))
	mux.HandleFunc("/v1/lease/release", s.writeGuard(s.handleLeaseRelease))
	mux.HandleFunc("/v1/fired", s.handleFired)
	mux.HandleFunc("/v1/timers", s.handleTimers)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/v1/promote", s.handlePromote)
	mux.HandleFunc("/v1/replica/snapshot", streamer.ServeSnapshot)
	mux.HandleFunc("/v1/replica/stream", streamer.ServeStream)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", telemetry.HandlerWith(s.fac, s.extraMetrics()...))
	return s.stampTerm(s.withTrace(mux))
}

// Long-poll bounds. Both must stay under the http.Server write timeout
// main.go configures (serverWriteTimeout), or a caught-up poller would
// see its response killed mid-wait.
const (
	maxFiredWait  = 30 * time.Second
	maxStreamWait = 2 * time.Second
)

type scheduleItem struct {
	AfterMS    int64  `json:"after_ms,omitempty"`
	DeadlineNS int64  `json:"deadline_unix_ns,omitempty"`
	Class      string `json:"class,omitempty"`
	Lease      uint64 `json:"lease,omitempty"`
	Payload    string `json:"payload,omitempty"`
}

type scheduledAck struct {
	ID         uint64 `json:"id"`
	DeadlineNS int64  `json:"deadline_unix_ns"`
}

// class is a timer's client-declared class: an opaque byte in the WAL
// and a label on /v1/timers, which the facility gives no meaning.
type class uint8

// Timer classes, numbered as logs have always recorded them.
const (
	classBestEffort class = iota
	classNormal
	classCritical
)

func parseClass(s string) (class, bool) {
	switch s {
	case "", "normal":
		return classNormal, true
	case "critical":
		return classCritical, true
	case "best-effort":
		return classBestEffort, true
	}
	return 0, false
}

// String returns the class label parseClass accepts.
func (c class) String() string {
	switch c {
	case classBestEffort:
		return "best-effort"
	case classNormal:
		return "normal"
	case classCritical:
		return "critical"
	}
	return fmt.Sprintf("priority(%d)", uint8(c))
}

func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	sp := s.stages.Begin("admit", r.Header.Get(HeaderTrace), 0, 1)
	var item scheduleItem
	if !readJSON(w, r, &item) {
		return
	}
	acks, status, code, err := s.admit([]scheduleItem{item}, &sp)
	if err != nil {
		httpError(w, status, code, err.Error())
		return
	}
	writeJSON(w, acks[0])
}

func (s *server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	sp := s.stages.Begin("admit", r.Header.Get(HeaderTrace), 0, 0)
	var req struct {
		Timers []scheduleItem `json:"timers"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Timers) == 0 {
		httpError(w, http.StatusBadRequest, "bad_request", "empty batch")
		return
	}
	acks, status, code, err := s.admit(req.Timers, &sp)
	if err != nil {
		httpError(w, status, code, err.Error())
		return
	}
	writeJSON(w, batchResponse{Timers: acks})
}

// admit runs the durable admission protocol for a batch: validate,
// write-ahead (one group commit for the whole batch), arm in the
// facility, then publish the handles. The WAL commit precedes the arm
// so a crash after the ack always replays the timer; a crash before
// the commit acks nothing and replays nothing.
//
// sp is the request's stage span, opened at handler entry; admit marks
// the decode/append/commit/arm/publish boundaries and records the
// timeline only for successful admissions (a refused request has no
// end-to-end latency to decompose — its story is the error code).
func (s *server) admit(items []scheduleItem, sp *stagetrace.Span) ([]scheduledAck, int, string, error) {
	now := s.clk.Now()
	trace := sp.Trace()
	classes := make([]class, len(items))
	deadlines := make([]int64, len(items))
	for i, it := range items {
		p, ok := parseClass(it.Class)
		if !ok {
			return nil, http.StatusBadRequest, "bad_request", fmt.Errorf("item %d: unknown class %q", i, it.Class)
		}
		classes[i] = p
		switch {
		case it.DeadlineNS > 0:
			deadlines[i] = it.DeadlineNS
		case it.AfterMS > 0:
			deadlines[i] = now.Add(time.Duration(it.AfterMS) * time.Millisecond).UnixNano()
		default:
			return nil, http.StatusBadRequest, "bad_request", fmt.Errorf("item %d: need after_ms or deadline_unix_ns", i)
		}
	}
	sp.Mark("decode")

	// Write-ahead: one append per timer, one commit for the batch. Each
	// admission enters the State as it is appended, so a compaction from
	// here on seeds it even though its arm is still in flight.
	ids := make([]uint64, len(items))
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, "draining", fmt.Errorf("draining")
	}
	for i, it := range items {
		if _, live := s.state.Leases[it.Lease]; it.Lease != 0 && !live {
			s.mu.Unlock()
			return nil, http.StatusConflict, "lease_not_alive", fmt.Errorf("item %d: lease %d is not alive", i, it.Lease)
		}
	}
	var lsn wal.LSN
	for i, it := range items {
		ids[i] = s.nextID.Add(1)
		var payload []byte
		if it.Payload != "" {
			payload = []byte(it.Payload)
		}
		rec := wal.Record{
			Op: wal.OpSchedule, Class: uint8(classes[i]), ID: ids[i],
			Lease: it.Lease, Deadline: deadlines[i], Payload: payload,
		}
		var err error
		lsn, err = s.log.Append(rec)
		if err != nil {
			s.abortAdmissionLocked(ids[:i])
			s.mu.Unlock()
			return nil, http.StatusServiceUnavailable, "wal_failed", fmt.Errorf("wal append: %w", err)
		}
		s.state.Apply(rec)
		if trace != "" {
			s.traces[ids[i]] = trace
		}
	}
	s.mu.Unlock()
	sp.Mark("append")
	if err := s.log.Commit(lsn); err != nil {
		s.abortAdmission(ids)
		return nil, http.StatusServiceUnavailable, "wal_failed", fmt.Errorf("wal commit: %w", err)
	}
	sp.Mark("commit")

	// The deadlines were fixed at decode; arm against a fresh reading so
	// the append and commit time just spent does not land on the fire.
	armNS := s.clk.Now().UnixNano()
	reqs := make([]timer.Req, len(items))
	for i := range items {
		reqs[i] = armReq(ids[i], deadlines[i], armNS)
	}
	timers, err := s.fac.ScheduleBatch(reqs)
	sp.Mark("arm")
	if err != nil {
		// Partial or refused batch (draining): un-admit everything. The
		// armed subset is stopped; the WAL gets a cancel per timer so the
		// acked-nothing outcome is also the replayed outcome.
		s.fac.StopBatch(timers)
		s.abortAdmission(ids)
		return nil, http.StatusServiceUnavailable, "overloaded", fmt.Errorf("facility refused batch: %w", err)
	}

	// Publish the handles. A timer whose deadline fell inside the first
	// tick may already have fired and left the State; it gets no handle.
	acks := make([]scheduledAck, len(items))
	var orphans []*timer.Timer
	s.mu.Lock()
	for i, it := range items {
		id := ids[i]
		acks[i] = scheduledAck{ID: id, DeadlineNS: deadlines[i]}
		ts, live := s.state.Timers[id]
		if !live {
			continue
		}
		s.handles[id] = timers[i]
		if it.Lease != 0 && !s.leases.Attach(it.Lease, id) {
			// The lease died between validation and publish: its GC
			// already ran and missed this timer, so cancel it here.
			tm, _, _ := s.cancelLocked(id, ts)
			s.noteUnsyncedLocked(1)
			orphans = append(orphans, tm)
		}
	}
	s.mu.Unlock()
	s.fac.StopBatch(orphans)
	sp.Mark("publish")
	sp.SetTimer(ids[0], len(items))
	total := sp.Total()
	sp.Finish()
	if total >= time.Duration(s.slowNS) {
		s.logger.Warn("slow admission",
			"trace", trace, "first_id", ids[0], "count", len(items),
			"total", total, "term", s.currentTerm())
	}
	s.maybeCompact()
	return acks, 0, "", nil
}

// armReq re-expresses wall deadline deadlineNS as a delay from nowNS;
// one already past arms at the minimum (one tick) and fires on the next
// poll. nowNS must be read just before the arm: the runtime counts the
// delay from the arm, so an older reading fires the timer late by its
// age. The timer is journal-only: its fire is the Journal's TimersFired.
func armReq(id uint64, deadlineNS, nowNS int64) timer.Req {
	d := time.Duration(deadlineNS - nowNS)
	if d < 1 {
		d = 1
	}
	return timer.Req{After: d, Opt: timer.WithTag(id)}
}

// abortAdmission voids WAL-admitted ids after a downstream failure:
// each still outstanding gets a cancel record so replay agrees with the
// refused ack.
func (s *server) abortAdmission(ids []uint64) {
	s.mu.Lock()
	lsn := s.abortAdmissionLocked(ids)
	s.mu.Unlock()
	// Best-effort: the client is getting a 503 either way, and a cancel
	// that misses the disk only re-fires a timer the client was told
	// failed — the documented at-least-once ambiguity.
	s.log.Commit(lsn)
}

// abortAdmissionLocked is abortAdmission under an already-held s.mu; it
// returns the last cancel's LSN for the caller to commit. An admission
// that already fired keeps its fire (the same ambiguity).
func (s *server) abortAdmissionLocked(ids []uint64) wal.LSN {
	var lsn wal.LSN
	for _, id := range ids {
		if ts, live := s.state.Timers[id]; live {
			_, lsn, _ = s.cancelLocked(id, ts)
		}
	}
	return lsn
}

func (s *server) handleStop(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID uint64 `json:"id"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	tm, ok := s.handles[req.ID]
	if !ok {
		// Unknown, settled, or an admission still in flight.
		s.mu.Unlock()
		writeJSON(w, stopResponse{Stopped: false})
		return
	}
	ts := s.state.Timers[req.ID]
	trace, payload := s.traces[req.ID], s.state.Payloads[req.ID]
	// Append before touching memory: a refused append then needs no
	// undo — the timer simply stays armed and the client gets a 503.
	rec := wal.Record{Op: wal.OpCancel, Class: ts.Class, ID: req.ID, Lease: ts.Lease}
	lsn, werr := s.log.Append(rec)
	if werr != nil {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal append: "+werr.Error())
		return
	}
	s.state.Apply(rec)
	delete(s.handles, req.ID)
	delete(s.traces, req.ID)
	if ts.Lease != 0 {
		s.leases.Detach(ts.Lease, req.ID)
	}
	s.mu.Unlock()
	if err := s.log.Commit(lsn); err != nil {
		// The cancel record's durability is unknown (and the log is now
		// failed). Undo the in-memory cancel and 503: the timer stays
		// armed in this process, and either replay outcome — cancelled
		// or re-armed — is permissible for an unacknowledged stop.
		s.mu.Lock()
		s.state.Timers[req.ID] = ts
		if payload != nil {
			s.state.Payloads[req.ID] = payload
		}
		s.state.Cancelled--
		s.handles[req.ID] = tm
		if trace != "" {
			s.traces[req.ID] = trace
		}
		if ts.Lease != 0 {
			s.leases.Attach(ts.Lease, req.ID)
		}
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal commit: "+err.Error())
		return
	}
	// The WAL cancel wins even if the fire won the facility race: the
	// journal finds the timer gone and logs nothing.
	stopped := tm.Stop()
	s.maybeCompact()
	writeJSON(w, stopResponse{Stopped: stopped})
}

func (s *server) handleReset(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Resets []struct {
			ID      uint64 `json:"id"`
			AfterMS int64  `json:"after_ms"`
		} `json:"resets"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Resets) == 0 {
		httpError(w, http.StatusBadRequest, "bad_request", "empty reset batch")
		return
	}
	now := s.clk.Now()
	rr := make([]timer.ResetReq, 0, len(req.Resets))
	// undos hold a reset back to each timer's old deadline, so a WAL
	// failure can roll the State back to what replay will reconstruct;
	// applied newest first under s.mu, they leave settled timers alone.
	undos := make([]wal.Record, 0, len(req.Resets))
	revert := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			s.state.Apply(undos[i])
		}
	}
	s.mu.Lock()
	var lsn wal.LSN
	for _, q := range req.Resets {
		if q.AfterMS <= 0 {
			continue
		}
		tm, ok := s.handles[q.ID]
		if !ok {
			continue
		}
		ts := s.state.Timers[q.ID]
		after := time.Duration(q.AfterMS) * time.Millisecond
		rec := wal.Record{Op: wal.OpReset, Class: ts.Class, ID: q.ID, Lease: ts.Lease, Deadline: now.Add(after).UnixNano()}
		l, werr := s.log.Append(rec)
		if werr != nil {
			revert()
			s.mu.Unlock()
			httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal append: "+werr.Error())
			return
		}
		lsn = l
		undos = append(undos, wal.Record{Op: wal.OpReset, ID: q.ID, Deadline: ts.Deadline})
		s.state.Apply(rec)
		rr = append(rr, timer.ResetReq{T: tm, After: after})
	}
	s.mu.Unlock()
	matched := len(rr)
	if matched > 0 {
		if err := s.log.Commit(lsn); err != nil {
			// No reset reached the facility yet; restoring the recorded
			// deadlines leaves memory, wheel, and replay agreeing on the
			// old schedule. The 503 tells the client nothing moved.
			s.mu.Lock()
			revert()
			s.mu.Unlock()
			httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal commit: "+err.Error())
			return
		}
	}
	// The new deadlines were fixed before the append; shorten each delay
	// by the time spent since, so the commit does not land on the fire.
	if spent := s.clk.Now().Sub(now); spent > 0 {
		for i := range rr {
			rr[i].After = max(rr[i].After-spent, 1)
		}
	}
	accepted, _ := s.fac.ResetBatch(rr)
	s.maybeCompact()
	writeJSON(w, map[string]any{"matched": matched, "accepted": accepted})
}

// leaseTTL clamps a requested lease TTL to [minLeaseTTL, maxLeaseTTL];
// ms <= 0 takes the -lease-ttl default.
func (s *server) leaseTTL(ms int64) time.Duration {
	ttl := time.Duration(ms) * time.Millisecond
	if ms <= 0 {
		ttl = s.cfg.defaultTTL
	}
	return min(max(ttl, minLeaseTTL), maxLeaseTTL)
}

// Lease TTL bounds: a heartbeat period under a second is a client bug,
// and one past ten minutes a session nobody will notice die.
const (
	minLeaseTTL = time.Second
	maxLeaseTTL = 10 * time.Minute
)

// handleLeaseGrant grants a lease the way admission admits a timer:
// append, apply, commit, and only then arm its watchdog. The ID is the
// State's lease high-water plus one.
func (s *server) handleLeaseGrant(w http.ResponseWriter, r *http.Request) {
	var req struct {
		TTLMS int64 `json:"ttl_ms"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	ttl := s.leaseTTL(req.TTLMS)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "draining", "draining")
		return
	}
	id := s.state.NextLeaseID + 1
	expiry := s.clk.Now().Add(ttl).UnixNano()
	rec := wal.Record{Op: wal.OpLeaseGrant, ID: id, Deadline: expiry}
	lsn, err := s.log.Append(rec)
	if err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal append: "+err.Error())
		return
	}
	s.state.Apply(rec)
	s.mu.Unlock()
	if err := s.log.Commit(lsn); err != nil {
		// Undo the grant in the State only, as handleStop undoes a
		// cancel. NextLeaseID stays past id: the record may be on disk,
		// and replay would then restore a lease nobody holds, which its
		// watchdog expires through the normal path.
		s.mu.Lock()
		if _, live := s.state.Leases[id]; live {
			delete(s.state.Leases, id)
			s.state.LeasesGranted--
		}
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal commit: "+err.Error())
		return
	}
	// Armed against a fresh reading, so the commit time is not added to
	// the TTL. Only a facility that started draining since the check
	// refuses; the durable lease then replays on the next boot.
	if err := s.leases.Watch(id, time.Duration(expiry-s.clk.Now().UnixNano()), nil); err != nil {
		httpError(w, http.StatusServiceUnavailable, "draining", "lease watchdog: "+err.Error())
		return
	}
	writeJSON(w, map[string]any{"lease": id, "expiry_unix_ns": expiry})
}

// handleLeaseRenew moves a live lease's expiry in the State: append,
// apply, commit. The watchdog is left alone; when it fires it finds the
// new expiry and re-arms for the remainder.
func (s *server) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Lease uint64 `json:"lease"`
		TTLMS int64  `json:"ttl_ms"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	ttl := s.leaseTTL(req.TTLMS)
	s.mu.Lock()
	old, live := s.state.Leases[req.Lease]
	if !live {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "lease_not_alive", "lease not alive")
		return
	}
	expiry := s.clk.Now().Add(ttl).UnixNano()
	rec := wal.Record{Op: wal.OpLeaseRenew, ID: req.Lease, Deadline: expiry}
	lsn, err := s.log.Append(rec)
	if err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal append: "+err.Error())
		return
	}
	s.state.Apply(rec)
	s.mu.Unlock()
	if err := s.log.Commit(lsn); err != nil {
		// An acked renewal that is not durable would silently revert to
		// the old expiry on restart — the client's timers would then be
		// GC'd early. Restore the old expiry (unless a later renewal
		// already moved it) so memory never promises more than the log,
		// and let the client retry against the 503.
		s.mu.Lock()
		if ls, live := s.state.Leases[req.Lease]; live && ls.Expiry == expiry {
			s.state.Leases[req.Lease] = old
		}
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal commit: "+err.Error())
		return
	}
	s.leasesRenewed.Add(1)
	writeJSON(w, map[string]any{"expiry_unix_ns": expiry})
}

// handleLeaseRelease ends a lease at its client's request: the end
// record, the cancels of its timers and the hand-over of its owned set
// and watchdog happen in one s.mu hold, then one commit.
func (s *server) handleLeaseRelease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Lease uint64 `json:"lease"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	if _, live := s.state.Leases[req.Lease]; !live {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "lease_not_alive", "lease not alive")
		return
	}
	owned, wd := s.leases.Forget(req.Lease)
	victims, cancelled, lsn, err := s.endLeaseLocked(req.Lease, owned)
	s.mu.Unlock()
	s.leasesReleased.Add(1)
	if err == nil {
		err = s.log.Commit(lsn)
	}
	s.fac.StopBatch(append(victims, wd))
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "wal_failed", "released, but not durably: "+err.Error())
		return
	}
	s.maybeCompact()
	writeJSON(w, map[string]any{"cancelled": cancelled})
}

// handleFired serves the fired-event ring. `since` is the client's
// cursor; `wait` long-polls: if no event past the cursor exists yet,
// the handler blocks up to min(wait, maxFiredWait) for the next fire
// instead of forcing the client to poll.
func (s *server) handleFired(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if ss := r.URL.Query().Get("since"); ss != "" {
		v, err := strconv.ParseUint(ss, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "bad since cursor")
			return
		}
		since = v
	}
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, "bad_request", "bad wait duration")
			return
		}
		if d > maxFiredWait {
			d = maxFiredWait
		}
		wait = d
	}
	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		next := s.firedSeq
		// next > since always answers at once: either events past the
		// cursor exist, or the cursor predates the ring's retention and
		// the client must resynchronize rather than block on history
		// that will never reappear.
		if wait == 0 || next > since {
			events := s.firedSinceLocked(since)
			// Amend the push leg into each event's fire timeline exactly
			// once: the watermark advances under s.mu, so concurrent
			// pollers claim disjoint first deliveries.
			type pushMark struct {
				tlSeq   uint64
				readyNS int64
			}
			pushes := make([]pushMark, 0, len(events))
			for _, ev := range events {
				if ev.Seq > s.pushedSeq && ev.tlSeq != 0 {
					pushes = append(pushes, pushMark{ev.tlSeq, ev.readyNS})
				}
			}
			if len(events) > 0 && events[len(events)-1].Seq > s.pushedSeq {
				s.pushedSeq = events[len(events)-1].Seq
			}
			s.mu.Unlock()
			if len(events) > 0 && s.cfg.syncEvery == 1 {
				// -sync-every 1 promises every record durable before it is
				// acted on, and a client acts on a fire it sees: make the
				// returned fire records durable before sending them.
				s.log.Sync()
			}
			pushNS := s.clk.Now().UnixNano()
			writeFired(w, events, next)
			// Amended after the page is sent: a storm's page carries a
			// thousand timelines, and the client should not wait for them.
			for _, p := range pushes {
				s.stages.Amend(p.tlSeq, "push", pushNS-p.readyNS)
			}
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			s.mu.Unlock()
			writeFired(w, []firedEvent{}, next)
			return
		}
		if s.firedNotify == nil {
			s.firedNotify = make(chan struct{})
		}
		notify := s.firedNotify
		s.mu.Unlock()
		t := time.NewTimer(remain)
		select {
		case <-notify: // a fire landed; re-collect
			t.Stop()
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
			return
		}
	}
}

// firedSinceLocked copies out the retained events past cursor since, in
// seq order. The ring holds exactly (firedSeq-len(fired), firedSeq],
// so the first event's slot follows from since alone and only the
// returned events are touched. Caller holds s.mu.
func (s *server) firedSinceLocked(since uint64) []firedEvent {
	oldest := s.firedSeq - uint64(len(s.fired)) // newest seq no longer retained
	if since < oldest {
		since = oldest
	}
	if since >= s.firedSeq {
		return []firedEvent{}
	}
	events := make([]firedEvent, s.firedSeq-since)
	start := (s.firedHead + int(since-oldest)) % len(s.fired)
	n := copy(events, s.fired[start:])
	copy(events[n:], s.fired)
	return events
}

// handleTimers lists the outstanding set — the daemon's answer to
// "what would replay if you crashed right now": every timer in the
// State, committed admissions whose arm is still in flight included.
// Intended for inspection and tests, not high-frequency polling.
func (s *server) handleTimers(w http.ResponseWriter, r *http.Request) {
	type timerView struct {
		ID         uint64 `json:"id"`
		DeadlineNS int64  `json:"deadline_unix_ns"`
		Class      string `json:"class"`
		Lease      uint64 `json:"lease,omitempty"`
	}
	s.mu.Lock()
	out := make([]timerView, 0, len(s.state.Timers))
	for id, ts := range s.state.Timers {
		out = append(out, timerView{
			ID: id, DeadlineNS: ts.Deadline,
			Class: class(ts.Class).String(), Lease: ts.Lease,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, map[string]any{"timers": out})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := map[string]any{
		"status":          "ok",
		"role":            s.currentRole().String(),
		"term":            s.currentTerm(),
		"outstanding":     len(s.state.Timers),
		"scheduled_total": s.state.Scheduled,
		"fired_total":     s.state.Fired,
		"cancelled_total": s.state.Cancelled,
		"leases_active":   len(s.state.Leases),
	}
	s.mu.Unlock()
	ws := s.log.Stats()
	body["wal"] = map[string]any{
		"epoch": ws.Epoch, "lsn": ws.LSN, "durable": ws.Durable,
		"appends": ws.Appends, "syncs": ws.Syncs, "snapshots": ws.Snapshots,
		"segment_bytes": ws.SegmentBytes, "durable_bytes": ws.DurableBytes,
		"failed": ws.Failed,
	}
	if s.currentRole() == roleStandby {
		// Replication lag, observable without /metrics: how far this
		// standby trails the primary's commit point.
		rs := s.role.follower.Status()
		rep := map[string]any{
			"primary":        s.cfg.follow,
			"cursor_epoch":   rs.Cursor.Epoch,
			"cursor_offset":  rs.Cursor.Offset,
			"bytes_behind":   rs.BytesBehind,
			"records_behind": rs.RecordsBehind,
			"frames_applied": rs.FramesApplied,
			"seeds":          rs.Seeds,
			"resyncs":        rs.Resyncs,
			"net_errors":     rs.NetErrors,
		}
		if !rs.LastContact.IsZero() {
			rep["last_contact_ms_ago"] = time.Since(rs.LastContact).Milliseconds()
		}
		body["replication"] = rep
	}
	if ws.Failed {
		// The log hit an unrecoverable I/O error: every acked path is
		// refusing work with 503s and the daemon needs a restart.
		body["status"] = "degraded: wal failed"
	}
	rec := s.recovered
	body["recovered"] = map[string]any{
		"snapshot_records": rec.SnapshotRecords,
		"log_records":      rec.LogRecords,
		"torn":             rec.Torn,
		"torn_bytes":       rec.TornBytes,
		"sealed":           rec.Sealed,
		"timers":           rec.Outstanding,
		"leases":           rec.Leases,
	}
	writeJSON(w, body)
}

// extraMetrics exports the WAL and lease counters next to the
// facility's own series on /metrics.
func (s *server) extraMetrics() []telemetry.Metric {
	walStat := func(f func(wal.Stats) float64) func() float64 {
		return func() float64 { return f(s.log.Stats()) }
	}
	counter := func(c *atomic.Uint64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	srvStat := func(f func(*server) float64) func() float64 {
		return func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return f(s) }
	}
	metrics := append([]telemetry.Metric(nil), s.stageMetrics()...)
	return append(metrics, []telemetry.Metric{
		{Name: "wal_appends_total", Help: "Records appended to the WAL.", Value: walStat(func(w wal.Stats) float64 { return float64(w.Appends) })},
		{Name: "wal_syncs_total", Help: "WAL fsync batches.", Value: walStat(func(w wal.Stats) float64 { return float64(w.Syncs) })},
		{Name: "wal_snapshots_total", Help: "WAL compaction snapshots.", Value: walStat(func(w wal.Stats) float64 { return float64(w.Snapshots) })},
		{Name: "wal_segment_bytes", Help: "Active WAL segment size.", Gauge: true, Value: walStat(func(w wal.Stats) float64 { return float64(w.SegmentBytes) })},
		{Name: "wal_unsynced_records", Help: "Appended records not yet durable.", Gauge: true, Value: walStat(func(w wal.Stats) float64 { return float64(w.LSN - w.Durable) })},
		{Name: "leases_active", Help: "Live client leases.", Gauge: true, Value: srvStat(func(s *server) float64 { return float64(len(s.state.Leases)) })},
		{Name: "leases_granted_total", Help: "Leases granted.", Value: srvStat(func(s *server) float64 { return float64(s.state.LeasesGranted) })},
		{Name: "leases_renewed_total", Help: "Lease renewals.", Value: counter(&s.leasesRenewed)},
		{Name: "leases_expired_total", Help: "Leases expired for missed heartbeats.", Value: counter(&s.leasesExpired)},
		{Name: "leases_released_total", Help: "Leases released by their clients.", Value: counter(&s.leasesReleased)},
		{Name: "twd_scheduled_total", Help: "Timers durably admitted.", Value: srvStat(func(s *server) float64 { return float64(s.state.Scheduled) })},
		{Name: "twd_fired_total", Help: "Timers delivered.", Value: srvStat(func(s *server) float64 { return float64(s.state.Fired) })},
		{Name: "twd_cancelled_total", Help: "Timers cancelled.", Value: srvStat(func(s *server) float64 { return float64(s.state.Cancelled) })},
		{Name: "twd_role", Help: "Replication role (0 primary, 1 standby, 2 fenced).", Gauge: true, Value: func() float64 { return float64(s.roleNow.Load()) }},
		{Name: "twd_term", Help: "Fencing term.", Gauge: true, Value: func() float64 { return float64(s.currentTerm()) }},
		{Name: "wal_durable_bytes", Help: "Durable prefix of the active WAL segment (what replication serves).", Gauge: true, Value: walStat(func(w wal.Stats) float64 { return float64(w.DurableBytes) })},
		{Name: "replica_frames_applied_total", Help: "WAL frames applied from the primary (standby only).", Value: func() float64 { return float64(s.replApplied.Load()) }},
		{Name: "replica_bytes_behind", Help: "Replication lag in bytes (standby only).", Gauge: true, Value: func() float64 {
			if f := s.role.follower; f != nil {
				return float64(f.Status().BytesBehind)
			}
			return 0
		}},
		{Name: "replica_records_behind", Help: "Replication lag in records (standby only).", Gauge: true, Value: func() float64 {
			if f := s.role.follower; f != nil {
				return float64(f.Status().RecordsBehind)
			}
			return 0
		}},
	}...)
}

// maybeCompact triggers a background snapshot once the active segment
// outgrows the configured threshold. One compaction at a time.
func (s *server) maybeCompact() {
	if s.cfg.snapBytes <= 0 || s.log.SegmentBytes() < s.cfg.snapBytes {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		s.compact()
	}()
}

// compact rewrites the WAL as a snapshot of the live State. Holding
// s.mu for the duration pins the record set: no append can land in the
// old segment after the seed is built, so rotation loses nothing. An
// admission is in the State from its append on, so one whose arm is
// still in flight is seeded like any other; the seed's high-water pin
// covers the allocator, so a restart never re-issues a settled
// timer's ID.
func (s *server) compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Snapshot(s.state.Seed(s.nextID.Load())); err != nil {
		// A failed snapshot rolled back to the old epoch (still
		// authoritative) or, if even the rollback failed, poisoned the
		// log — every later acked path then 503s. Either way the operator
		// must hear about it; durable state is never silently wrong.
		s.logger.Error("wal snapshot failed", "err", err, "term", s.currentTerm(),
			"outstanding", len(s.state.Timers))
	}
}

// shutdown runs the graceful path: fence admissions, cancel the
// outstanding set in the facility (the WAL deliberately keeps those
// timers outstanding, so the next boot replays them), then seal and
// close the log so recovery knows the shutdown was clean.
func (s *server) shutdown(drainCtx context.Context) {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	if s.currentRole() == roleStandby && s.role.followStop != nil {
		// Stop the stream first, then persist a cursor that matches the
		// synced local journal — the restart resumes instead of re-seeding.
		s.role.followStop()
		<-s.role.followDone
		expired, cancel := context.WithCancel(context.Background())
		cancel() // pre-cancelled: Drain skips fetching, syncs, persists
		s.role.follower.Drain(expired)
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.leases.Close()
	s.fac.Drain(drainCtx, timer.DrainCancelAll)
	close(s.syncStop)
	<-s.syncDone
	s.mu.Lock()
	if _, err := s.log.Append(wal.Record{Op: wal.OpSeal}); err == nil {
		s.state.Apply(wal.Record{Op: wal.OpSeal})
	}
	s.mu.Unlock()
	s.log.Sync()
	s.log.Close()
}

// HTTP plumbing.

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", err.Error())
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "bad json: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// httpError writes a machine-readable error: `error` is a stable code
// clients can switch on ("draining", "wal_failed", "not_primary", ...),
// `message` the human detail. 503s carry Retry-After so a well-behaved
// client backs off instead of hammering a daemon that is draining or
// whose WAL failed.
func httpError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: code, Message: msg})
}

// Response bodies of the hot endpoints. Fields are declared in
// alphabetical order so the bytes match what encoding a map with the
// same keys produced.
type (
	// batchResponse is the /v1/schedule-batch reply.
	batchResponse struct {
		Timers []scheduledAck `json:"timers"`
	}
	// stopResponse is the /v1/stop reply.
	stopResponse struct {
		Stopped bool `json:"stopped"`
	}
	// errorResponse is every error reply: `error` a stable code,
	// `message` the human detail.
	errorResponse struct {
		Error   string `json:"error"`
		Message string `json:"message"`
	}
)
