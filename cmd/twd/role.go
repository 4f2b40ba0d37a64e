package main

// Roles, terms, and promotion: the single-writer side of replication.
//
// A twd process is exactly one of:
//
//   - primary: accepts writes, streams its WAL to followers.
//   - standby: follows a primary (-follow <url>); every write endpoint
//     answers 421 so a misdirected client rediscovers the primary.
//   - fenced: a deposed primary. It refuses writes and arms nothing, so
//     a timer that already fired on the promoted node can never fire
//     again here.
//
// Terms are the fencing tokens: a monotonic counter persisted in
// term.json, bumped by every promotion. The primary stamps its term on
// every response (X-Twd-Term); clients echo the highest term they have
// seen on every request. A primary that receives a request bearing a
// term above its own has provably been deposed — some node promoted
// past it — and fences itself on the spot. A restarting primary probes
// its -peers before arming anything; a peer with a higher term fences
// the boot.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"timingwheels/internal/replica"
	"timingwheels/internal/wal"
	"timingwheels/timer"
)

type role int32

const (
	rolePrimary role = iota
	roleStandby
	roleFenced
)

func (r role) String() string {
	switch r {
	case rolePrimary:
		return "primary"
	case roleStandby:
		return "standby"
	case roleFenced:
		return "fenced"
	default:
		return fmt.Sprintf("role(%d)", int32(r))
	}
}

// termPath names the persisted fencing term.
func termPath(dir string) string { return filepath.Join(dir, "term.json") }

func loadTerm(dir string) uint64 {
	data, err := os.ReadFile(termPath(dir))
	if err != nil {
		return 0
	}
	var v struct {
		Term uint64 `json:"term"`
	}
	if json.Unmarshal(data, &v) != nil {
		return 0
	}
	return v.Term
}

// saveTerm persists the term durably (fsync via rename + dir sync is
// overkill for a monotonic counter that only fences; write+rename is
// enough — a lost bump re-fences on the next peer contact).
func saveTerm(dir string, term uint64) error {
	data, _ := json.Marshal(map[string]uint64{"term": term})
	tmp := termPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, termPath(dir))
}

// probePeerTerms asks each peer's /healthz for its term and returns the
// highest that answered. Unreachable peers contribute nothing — a boot
// cannot block on a dead fleet.
func probePeerTerms(peers []string, timeout time.Duration) uint64 {
	client := &http.Client{Timeout: timeout}
	var highest uint64
	for _, p := range peers {
		if p == "" {
			continue
		}
		resp, err := client.Get(p + "/healthz")
		if err != nil {
			continue
		}
		var body struct {
			Term uint64 `json:"term"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err == nil && body.Term > highest {
			highest = body.Term
		}
	}
	return highest
}

// roleState is the server's replication identity.
type roleState struct {
	mu   sync.Mutex // serializes promote/fence transitions
	term uint64     // current fencing term (atomic reads via termLoad)
	r    role

	follower   *replica.Follower
	followStop context.CancelFunc
	followDone chan error
}

// currentRole and currentTerm are the lock-free read side (healthz,
// guards); transitions hold roleState.mu.
func (s *server) currentRole() role { return role(s.roleNow.Load()) }

func (s *server) currentTerm() uint64 { return s.termNow.Load() }

// stampTerm wraps the whole mux: every response carries the node's term
// so clients can fence stale primaries for us.
func (s *server) stampTerm(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(replica.HeaderTerm, strconv.FormatUint(s.currentTerm(), 10))
		h.ServeHTTP(w, r)
	})
}

// writeGuard gates a write endpoint on the node's role, and checks the
// client-echoed term: a request bearing a higher term than ours proves
// a promotion happened past us — fence immediately, refuse the write.
func (s *server) writeGuard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ts := r.Header.Get(replica.HeaderTerm); ts != "" {
			if peerTerm, err := strconv.ParseUint(ts, 10, 64); err == nil && peerTerm > s.currentTerm() {
				s.fence(peerTerm)
			}
		}
		switch s.currentRole() {
		case rolePrimary:
			h(w, r)
		case roleStandby:
			httpError(w, http.StatusMisdirectedRequest, "not_primary",
				"this node is a standby; write to the primary")
		default:
			httpError(w, http.StatusMisdirectedRequest, "fenced",
				"this node was deposed (stale term); rediscover the primary")
		}
	}
}

// fence demotes a primary that has proof of its own deposal. The
// facility is drained with cancel-all so no armed timer can fire after
// the fence — the promoted node owns every outstanding timer now, and a
// double delivery (one per node) is the one failure replication must
// never introduce. Idempotent.
func (s *server) fence(peerTerm uint64) {
	s.role.mu.Lock()
	if role(s.roleNow.Load()) == roleFenced {
		s.role.mu.Unlock()
		return
	}
	s.roleNow.Store(int32(roleFenced))
	s.role.mu.Unlock()

	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.logger.Warn("fenced: deposed by peer", "peer_term", peerTerm, "term", s.currentTerm())
	go func() {
		// Off the request path: draining cancels every armed timer and can
		// wait on delivery goroutines.
		s.leases.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.fac.Drain(ctx, timer.DrainCancelAll)
	}()
}

// promote turns a standby into the primary: stop the stream, drain the
// final bytes the old primary made durable, bump and persist the term,
// then re-arm the replicated state exactly like a boot replay. Returns
// the new term. Idempotent: promoting a primary reports its term;
// promoting a fenced node is refused (its state is provably stale).
func (s *server) promote(ctx context.Context) (uint64, error) {
	s.role.mu.Lock()
	defer s.role.mu.Unlock()
	switch role(s.roleNow.Load()) {
	case rolePrimary:
		return s.currentTerm(), nil
	case roleFenced:
		return 0, errors.New("fenced node cannot be promoted")
	}

	// Stop the follow loop, then drain: one last fetch round against
	// whatever of the primary is still answering, then a local sync so
	// the promoted state equals the durable local disk.
	s.role.followStop()
	<-s.role.followDone
	drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	st, err := s.role.follower.Drain(drainCtx)
	cancel()
	if err != nil {
		return 0, fmt.Errorf("drain replication cursor: %w", err)
	}

	// The new term fences everyone behind us: it exceeds every term the
	// old primary ever served under.
	newTerm := s.currentTerm()
	if st.Cursor.Term > newTerm {
		newTerm = st.Cursor.Term
	}
	if pt := loadTerm(s.cfg.dir); pt > newTerm {
		newTerm = pt
	}
	newTerm++
	if err := saveTerm(s.cfg.dir, newTerm); err != nil {
		return 0, fmt.Errorf("persist term: %w", err)
	}
	s.termNow.Store(newTerm)

	// Boot-style replay of the replicated State the follower applied
	// into: the fired cursor continues from its fire count, so client
	// /v1/fired cursors stay monotonic across the failover (a standby
	// fired nothing, so its ring is empty), then every outstanding timer
	// arms at its absolute deadline (past deadlines fire immediately with
	// true lag), live leases are restored, dead ones eagerly GC'd, and
	// the ID allocator seeded.
	s.mu.Lock()
	s.firedSeq = s.state.Fired
	outstanding := len(s.state.Timers)
	s.mu.Unlock()
	if err := s.replay(); err != nil {
		return 0, fmt.Errorf("replay replicated state: %w", err)
	}
	s.roleNow.Store(int32(rolePrimary))
	s.logger.Info("promoted to primary", "term", newTerm,
		"outstanding", outstanding,
		"lag_bytes", st.BytesBehind, "lag_records", st.RecordsBehind)
	return newTerm, nil
}

// handlePromote is POST /v1/promote.
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return
	}
	term, err := s.promote(r.Context())
	if err != nil {
		httpError(w, http.StatusConflict, "promote_failed", err.Error())
		return
	}
	writeJSON(w, map[string]any{"role": s.currentRole().String(), "term": term})
}

// startFollowing wires the replication pull loop for a standby.
func (s *server) startFollowing() error {
	f, err := replica.NewFollower(replica.FollowerConfig{
		Primary:      s.cfg.follow,
		Dir:          s.cfg.dir,
		Journal:      s.log,
		State:        s.state,
		Wait:         s.cfg.followWait,
		PersistEvery: 128,
		OnApply: func(rec wal.Record) {
			s.replApplied.Add(1)
			// Apply lag, measured on the one record type with a natural
			// clock anchor: a fire record applied at its deadline means
			// the standby is fully caught up; anything past it is the
			// primary's own fire lag plus replication delay — exactly the
			// staleness a failover would inherit. Clamped at zero (the
			// hdr histogram clamps too) for clock skew between nodes.
			if rec.Op == wal.OpFire && rec.Deadline > 0 {
				s.applyLag.Record(s.clk.Now().UnixNano() - rec.Deadline)
			}
		},
		ApplyLock: &s.mu,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	s.role.follower = f
	s.role.followStop = cancel
	s.role.followDone = done
	go func() { done <- f.Run(ctx) }()
	return nil
}
