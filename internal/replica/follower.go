package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"timingwheels/internal/wal"
)

// Journal is the follower's local durability surface. *wal.Log
// satisfies it. The follower appends every record it applies, so a
// promotion replays from local disk exactly like a boot — replication
// state never lives only in memory.
type Journal interface {
	Append(rec wal.Record) (wal.LSN, error)
	Commit(lsn wal.LSN) error
	Sync() error
	Snapshot(records []wal.Record) error
}

// Cursor names a position in the primary's WAL: a byte offset into one
// epoch's segment, plus the LSN arithmetic needed for record lag.
// Offsets only ever advance by whole decoded frames, so a persisted
// cursor is frame-aligned by construction.
type Cursor struct {
	// Epoch is the primary epoch this offset indexes.
	Epoch uint64 `json:"epoch"`
	// Offset is the applied byte prefix of that epoch's segment.
	Offset int64 `json:"offset"`
	// AppliedLSN is the primary LSN of the last applied record
	// (SegBaseLSN + frames applied this epoch).
	AppliedLSN wal.LSN `json:"applied_lsn"`
	// Term is the highest primary term observed.
	Term uint64 `json:"term"`
}

// Status is the follower's health snapshot, surfaced by twd's /healthz
// and /metrics in standby mode.
type Status struct {
	// Cursor is the current replication cursor.
	Cursor Cursor
	// PrimaryPos is the primary's last-reported position.
	PrimaryPos wal.FollowPos
	// BytesBehind and RecordsBehind measure lag against PrimaryPos.
	// Negative never occurs: a re-seed resets the cursor first.
	BytesBehind   int64
	RecordsBehind uint64
	// LastContact is when the primary last answered; zero before first
	// contact.
	LastContact time.Time
	// FramesApplied, Seeds, Resyncs, NetErrors count lifetime events:
	// records applied, snapshot (re-)seeds, corrupt-frame
	// resynchronizations, and failed fetch rounds.
	FramesApplied uint64
	Seeds         uint64
	Resyncs       uint64
	NetErrors     uint64
}

// FollowerConfig wires a Follower.
type FollowerConfig struct {
	// Primary is the primary's base URL, e.g. "http://127.0.0.1:7070".
	Primary string
	// Dir is the follower's data directory; the replication cursor
	// persists there as replica.json.
	Dir string
	// Journal is the follower's local WAL.
	Journal Journal
	// State is the replayed state shared with the daemon, which reads it
	// under ApplyLock and arms from it at promotion. Without ApplyLock
	// the daemon must not read it until the follower is stopped or
	// drained.
	State *wal.State
	// Client is the HTTP client; nil means a 10s-timeout default.
	Client *http.Client
	// Wait is the stream long-poll bound sent to the primary; 0 = 1s.
	Wait time.Duration
	// Backoff bounds the retry delay after a failed round; 0 = 500ms.
	Backoff time.Duration
	// PersistEvery persists the cursor after this many applied frames
	// (always preceded by a local WAL sync, so the cursor never claims
	// bytes the local disk could lose); 0 = 256.
	PersistEvery int
	// OnApply, if set, observes every applied record (after State.Apply
	// and the local journal append). The failover e2e uses it to track
	// per-id accounting; twd uses it to keep standby-side counters.
	OnApply func(rec wal.Record)
	// ApplyLock, if set, is held around every State mutation (Apply and
	// the re-seed's ResetTo) so another goroutine — twd's /healthz — can
	// read the state consistently by holding the same lock.
	ApplyLock sync.Locker
}

// Follower replicates a primary's WAL into a local journal and state.
// Run drives it; Status is safe concurrently; Drain performs the final
// catch-up a promotion needs.
type Follower struct {
	cfg FollowerConfig

	mu     sync.Mutex
	status Status

	dec          wal.FrameDecoder
	seeded       bool
	sincePersist int // frames applied since the cursor was last persisted
}

// ErrFenced reports a primary whose term regressed below one this
// follower has already seen — a deposed primary that came back. The
// follower refuses its stream: applying a stale node's writes after a
// promotion would fork history.
var ErrFenced = errors.New("replica: primary term regressed (deposed primary?)")

// NewFollower creates a follower, loading any persisted cursor from
// cfg.Dir. The caller must have replayed the local journal into
// cfg.State already (twd's boot recovery does).
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, errors.New("replica: primary URL required")
	}
	if _, err := url.Parse(cfg.Primary); err != nil {
		return nil, fmt.Errorf("replica: bad primary URL: %w", err)
	}
	if cfg.Journal == nil || cfg.State == nil {
		return nil, errors.New("replica: journal and state required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Wait <= 0 {
		cfg.Wait = time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.PersistEvery <= 0 {
		cfg.PersistEvery = 256
	}
	f := &Follower{cfg: cfg}
	cur, err := loadCursor(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if cur != nil {
		f.status.Cursor = *cur
		f.seeded = true
	}
	return f, nil
}

// Status returns the follower's current health snapshot.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status
}

// Run replicates until ctx is cancelled. Transient failures (network
// errors, 5xx, corrupt frames, epoch rotations) are retried forever —
// a standby's job is to wait out partitions. The only terminal errors
// are ErrFenced and a local journal failure, which make the standby's
// state untrustworthy.
func (f *Follower) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		progressed, err := f.step(ctx)
		if err != nil {
			if errors.Is(err, ErrFenced) || isJournalErr(err) {
				return err
			}
			f.mu.Lock()
			f.status.NetErrors++
			f.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(f.cfg.Backoff):
			}
			continue
		}
		if !progressed {
			// Caught up and the long poll came back empty; loop again
			// immediately — the poll itself is the pacing.
			continue
		}
	}
}

// Drain performs the final catch-up a promotion needs: fetch until the
// cursor reaches the primary's durable boundary, or until the primary
// stops answering (the usual promotion trigger) or ctx expires —
// whichever comes first. It then syncs the local journal and persists
// the cursor, so the promoted state is exactly the durable local disk.
// Returns the drained status.
func (f *Follower) Drain(ctx context.Context) (Status, error) {
	deadlineGone := 0
	for {
		if ctx.Err() != nil {
			break
		}
		progressed, err := f.step(ctx)
		if err != nil {
			if isJournalErr(err) {
				return f.Status(), err
			}
			// Primary unreachable or fenced us — nothing more to drain.
			deadlineGone++
			if errors.Is(err, ErrFenced) || deadlineGone >= 2 {
				break
			}
			continue
		}
		deadlineGone = 0
		st := f.Status()
		if progressed {
			continue
		}
		if st.Cursor.Epoch == st.PrimaryPos.Epoch && st.Cursor.Offset >= st.PrimaryPos.DurableBytes {
			break // caught up to everything the primary ever made durable
		}
	}
	if err := f.cfg.Journal.Sync(); err != nil {
		return f.Status(), err
	}
	if err := f.persistCursor(); err != nil {
		return f.Status(), err
	}
	return f.Status(), nil
}

// step runs one replication round: seed if needed, then one stream
// fetch and apply. progressed reports whether any frame was applied.
func (f *Follower) step(ctx context.Context) (progressed bool, err error) {
	if !f.seeded {
		if err := f.seed(ctx); err != nil {
			return false, err
		}
	}
	f.mu.Lock()
	cur := f.status.Cursor
	f.mu.Unlock()

	// The cursor only advances by whole frames, but the primary may cut
	// a chunk mid-frame (MaxChunk); the partial tail sits in the decoder.
	// Fetch past it, or the refetch would duplicate those bytes in the
	// buffer and mis-frame the stream.
	fetchOff := cur.Offset + int64(f.dec.Buffered())
	u := fmt.Sprintf("%s/v1/replica/stream?epoch=%d&offset=%d&wait=%s",
		f.cfg.Primary, cur.Epoch, fetchOff, f.cfg.Wait)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
		// fall through
	case http.StatusGone, http.StatusRequestedRangeNotSatisfiable:
		// Epoch compacted away, or our cursor is implausible: both mean
		// the segment we were reading no longer describes the primary.
		// Re-seed from the current snapshot.
		f.seeded = false
		f.dec.Reset()
		return false, nil
	default:
		return false, fmt.Errorf("replica: stream: %s", resp.Status)
	}
	if rerr != nil {
		return false, rerr
	}
	pos, term, err := parsePosHeaders(resp.Header)
	if err != nil {
		return false, err
	}
	if err := f.noteContact(pos, term); err != nil {
		return false, err
	}
	if len(body) == 0 {
		return false, nil
	}
	return f.apply(body)
}

// seed fetches the primary's snapshot and installs it as the local
// epoch seed, replacing all prior local state. Correct for the first
// connect (local state is empty) and for a mid-life re-seed after the
// primary compacted (the seed is the full live state at rotation;
// stale local records must not survive it, or cancelled timers would
// resurrect).
func (f *Follower) seed(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Primary+"/v1/replica/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: snapshot: %s", resp.Status)
	}
	if rerr != nil {
		return rerr
	}
	pos, term, err := parsePosHeaders(resp.Header)
	if err != nil {
		return err
	}

	// Decode the seed fully before touching local state: a torn snapshot
	// response must not half-install.
	var recs []wal.Record
	var dec wal.FrameDecoder
	dec.Write(body)
	for {
		rec, n, err := dec.Next()
		if err != nil {
			return fmt.Errorf("replica: corrupt snapshot seed: %w", err)
		}
		if n == 0 {
			break
		}
		recs = append(recs, rec)
	}
	if dec.Buffered() != 0 {
		return fmt.Errorf("replica: snapshot seed ends mid-frame (%d trailing bytes)", dec.Buffered())
	}

	// Install: local journal rotates to a segment seeded by exactly
	// these records, and the shared state is rebuilt from them.
	if err := f.cfg.Journal.Snapshot(recs); err != nil {
		return &journalError{err}
	}
	if f.cfg.ApplyLock != nil {
		f.cfg.ApplyLock.Lock()
	}
	f.cfg.State.ResetTo(recs)
	if f.cfg.ApplyLock != nil {
		f.cfg.ApplyLock.Unlock()
	}

	f.mu.Lock()
	f.status.Cursor = Cursor{Epoch: pos.Epoch, Offset: 0, AppliedLSN: pos.SegBaseLSN, Term: f.status.Cursor.Term}
	f.status.Seeds++
	f.mu.Unlock()
	if err := f.noteContact(pos, term); err != nil {
		return err
	}
	f.seeded = true
	f.dec.Reset()
	if err := f.cfg.Journal.Sync(); err != nil {
		return &journalError{err}
	}
	return f.persistCursor()
}

// apply decodes body's frames, journaling and applying each. A corrupt
// frame discards the undecoded tail and leaves the cursor at the last
// good frame — the next step re-fetches from there.
func (f *Follower) apply(body []byte) (progressed bool, err error) {
	f.dec.Write(body)
	var lastLSN wal.LSN
	frames := 0
	for {
		rec, n, derr := f.dec.Next()
		if derr != nil {
			// Poisoned bytes in flight. Drop the buffered tail; the cursor
			// still names the last fully applied frame, so the re-fetch is
			// exact.
			f.dec.Reset()
			f.mu.Lock()
			f.status.Resyncs++
			f.mu.Unlock()
			err = fmt.Errorf("replica: corrupt frame in stream (resyncing): %w", derr)
			break
		}
		if n == 0 {
			break // partial frame; wait for the next chunk
		}
		lsn, jerr := f.cfg.Journal.Append(rec)
		if jerr != nil {
			return frames > 0, &journalError{jerr}
		}
		lastLSN = lsn
		if f.cfg.ApplyLock != nil {
			f.cfg.ApplyLock.Lock()
		}
		f.cfg.State.Apply(rec)
		if f.cfg.ApplyLock != nil {
			f.cfg.ApplyLock.Unlock()
		}
		frames++
		f.mu.Lock()
		f.status.Cursor.Offset += int64(n)
		f.status.Cursor.AppliedLSN++
		f.status.FramesApplied++
		f.refreshLagLocked()
		f.mu.Unlock()
		if f.cfg.OnApply != nil {
			f.cfg.OnApply(rec)
		}
	}
	if frames > 0 {
		f.sincePersist += frames
		if f.sincePersist >= f.cfg.PersistEvery {
			// Durability order: local frames first, then the cursor that
			// claims them. A crash between the two refetches an overlap,
			// which idempotent Apply absorbs; the reverse order could
			// skip records forever.
			if serr := f.cfg.Journal.Commit(lastLSN); serr != nil {
				return true, &journalError{serr}
			}
			if perr := f.persistCursor(); perr != nil {
				return true, perr
			}
			f.sincePersist = 0
		}
	}
	return frames > 0, err
}

// noteContact records the primary's position and term, enforcing term
// monotonicity.
func (f *Follower) noteContact(pos wal.FollowPos, term uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if term < f.status.Cursor.Term {
		return fmt.Errorf("%w: saw term %d, primary reports %d", ErrFenced, f.status.Cursor.Term, term)
	}
	f.status.Cursor.Term = term
	f.status.PrimaryPos = pos
	f.status.LastContact = time.Now()
	f.refreshLagLocked()
	return nil
}

func (f *Follower) refreshLagLocked() {
	st := &f.status
	if st.PrimaryPos.Epoch == st.Cursor.Epoch {
		st.BytesBehind = st.PrimaryPos.DurableBytes - st.Cursor.Offset
		if st.BytesBehind < 0 {
			st.BytesBehind = 0
		}
	} else {
		// Mid re-seed; bytes lag is undefined, report the whole segment.
		st.BytesBehind = st.PrimaryPos.DurableBytes
	}
	if st.PrimaryPos.DurableLSN > st.Cursor.AppliedLSN {
		st.RecordsBehind = st.PrimaryPos.DurableLSN - st.Cursor.AppliedLSN
	} else {
		st.RecordsBehind = 0
	}
}

// Cursor persistence: replica.json, atomically renamed. Loaded on
// restart so the follower resumes from its last durable position
// instead of re-seeding.
func cursorPath(dir string) string { return filepath.Join(dir, "replica.json") }

func (f *Follower) persistCursor() error {
	f.mu.Lock()
	cur := f.status.Cursor
	f.mu.Unlock()
	data, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	tmp := cursorPath(f.cfg.Dir) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, cursorPath(f.cfg.Dir))
}

func loadCursor(dir string) (*Cursor, error) {
	data, err := os.ReadFile(cursorPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var cur Cursor
	if err := json.Unmarshal(data, &cur); err != nil {
		// A torn cursor file is recoverable: forget it and re-seed.
		return nil, nil
	}
	return &cur, nil
}

// LoadTerm reads the last term a follower in dir observed (0 if none) —
// what a promotion bumps from.
func LoadTerm(dir string) uint64 {
	cur, err := loadCursor(dir)
	if err != nil || cur == nil {
		return 0
	}
	return cur.Term
}

// journalError marks local-WAL failures terminal: a standby that cannot
// journal is not a standby.
type journalError struct{ err error }

func (e *journalError) Error() string { return "replica: local journal: " + e.err.Error() }
func (e *journalError) Unwrap() error { return e.err }

func isJournalErr(err error) bool {
	var je *journalError
	return errors.As(err, &je)
}
