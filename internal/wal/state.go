package wal

import "encoding/binary"

// TimerState is one outstanding timer; its ID is the State.Timers key
// and its payload, if any, is in State.Payloads.
type TimerState struct {
	Deadline int64 // absolute wall deadline, unix nanoseconds
	Lease    uint64
	Class    uint8
}

// LeaseState is one live lease; its ID is the State.Leases key.
type LeaseState struct {
	Expiry int64 // absolute wall expiry, unix nanoseconds
}

// State is the applied view of a log: the exact outstanding timer and
// lease sets plus the lifetime counters that close the conservation
// ledger,
//
//	Scheduled == Fired + Cancelled + len(Timers)
//
// Recovery builds one by replay; twd's primary keeps applying every
// record it appends to the same State, and a standby's follower every
// record it replicates, so the State is also the daemon's live table.
//
// Apply is idempotent per record identity — a duplicated frame (an
// appender that retried after an ambiguous failure) transitions the
// state once and inflates no counter — so replaying any prefix of a log
// twice, or a log with retry duplicates, reconstructs the same state as
// the clean history.
type State struct {
	// Timers holds the outstanding timers (scheduled, neither fired nor
	// cancelled), keyed by daemon ID.
	Timers map[uint64]TimerState
	// Payloads holds the payload of each outstanding timer that has one.
	// It is kept apart so Timers' values hold no pointer: the garbage
	// collector never scans that table, and its slots stay small, which
	// matters because Go maps grow rather than reclaim deleted slots
	// under churn.
	Payloads map[uint64][]byte
	// Leases holds the live leases, keyed by lease ID.
	Leases map[uint64]LeaseState
	// Scheduled, Fired, Cancelled count distinct timer transitions;
	// LeasesGranted and LeasesExpired the lease equivalents.
	Scheduled, Fired, Cancelled  uint64
	LeasesGranted, LeasesExpired uint64
	// NextID is the timer-ID allocator's high-water mark: the largest
	// timer ID seen in any timer record or OpHighWater pin. Seeding the
	// allocator from it (not from the outstanding set, which compaction
	// shrinks) guarantees restarts never re-issue a settled timer's ID.
	NextID uint64
	// Sealed reports that the final applied record was a clean-shutdown
	// seal; any record applied after a seal clears it.
	Sealed bool
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Timers:   make(map[uint64]TimerState),
		Payloads: make(map[uint64][]byte),
		Leases:   make(map[uint64]LeaseState),
	}
}

// Apply folds one record into the state. Unknown IDs are ignored where
// the transition needs an existing object (cancel/reset/fire of a timer
// already settled — the shape replay sees when a snapshot compacted the
// admission away, or when a duplicate frame re-applies a settled op).
func (s *State) Apply(rec Record) {
	s.Sealed = false
	switch rec.Op {
	case OpSchedule, OpCancel, OpReset, OpFire, OpHighWater:
		// Every timer record (and the explicit high-water pin) carries a
		// timer ID the allocator must never re-issue. Cancel/reset/fire
		// matter too: compaction can discard the admission while a later
		// record still names the ID.
		if rec.ID > s.NextID {
			s.NextID = rec.ID
		}
	}
	switch rec.Op {
	case OpSchedule:
		if _, dup := s.Timers[rec.ID]; !dup {
			s.Scheduled++
		}
		s.Timers[rec.ID] = TimerState{Deadline: rec.Deadline, Lease: rec.Lease, Class: rec.Class}
		if len(rec.Payload) > 0 {
			s.Payloads[rec.ID] = rec.Payload
		} else {
			delete(s.Payloads, rec.ID)
		}
	case OpCancel:
		if _, live := s.Timers[rec.ID]; live {
			delete(s.Timers, rec.ID)
			delete(s.Payloads, rec.ID)
			s.Cancelled++
		}
	case OpReset:
		if t, live := s.Timers[rec.ID]; live {
			t.Deadline = rec.Deadline
			s.Timers[rec.ID] = t
		}
	case OpFire:
		if _, live := s.Timers[rec.ID]; live {
			delete(s.Timers, rec.ID)
			delete(s.Payloads, rec.ID)
			s.Fired++
		}
	case OpLeaseGrant:
		if _, dup := s.Leases[rec.ID]; !dup {
			s.LeasesGranted++
		}
		s.Leases[rec.ID] = LeaseState{Expiry: rec.Deadline}
	case OpLeaseRenew:
		if l, live := s.Leases[rec.ID]; live {
			l.Expiry = rec.Deadline
			s.Leases[rec.ID] = l
		}
	case OpLeaseExpire:
		if _, live := s.Leases[rec.ID]; live {
			delete(s.Leases, rec.ID)
			s.LeasesExpired++
		}
	case OpSeal:
		s.Sealed = true
	case OpHighWater:
		// A pin written by Seed also carries the settled counts, so a
		// compacted log replays the lifetime ledger, not just the
		// outstanding set. The admitted counts follow from the ledger
		// identity over whatever is outstanding at the pin.
		if fired, cancelled, expired, ok := decodeLedger(rec.Payload); ok {
			s.Fired, s.Cancelled, s.LeasesExpired = fired, cancelled, expired
			s.Scheduled = fired + cancelled + uint64(len(s.Timers))
			s.LeasesGranted = expired + uint64(len(s.Leases))
		}
	}
}

// Outstanding reports the number of outstanding timers.
func (s *State) Outstanding() int { return len(s.Timers) }

// Seed returns the records that rebuild s from an empty State: a
// high-water pin, one OpSchedule per outstanding timer, and one
// OpLeaseGrant per live lease — a compaction snapshot. The pin carries
// max(nextID, s.NextID), so an allocator that issued IDs no record
// names yet is covered too, and the settled counts, so replaying the
// seed reproduces every counter (Sealed aside).
func (s *State) Seed(nextID uint64) []Record {
	recs := make([]Record, 0, 1+len(s.Timers)+len(s.Leases))
	recs = append(recs, Record{Op: OpHighWater, ID: max(nextID, s.NextID),
		Payload: encodeLedger(s.Fired, s.Cancelled, s.LeasesExpired)})
	for id, t := range s.Timers {
		recs = append(recs, Record{Op: OpSchedule, Class: t.Class, ID: id,
			Lease: t.Lease, Deadline: t.Deadline, Payload: s.Payloads[id]})
	}
	for id, l := range s.Leases {
		recs = append(recs, Record{Op: OpLeaseGrant, ID: id, Deadline: l.Expiry})
	}
	return recs
}

// encodeLedger and decodeLedger are the pin's payload: the Fired,
// Cancelled and LeasesExpired counts as three uvarints. Pins without a
// payload (older snapshots) leave the counters alone.
func encodeLedger(fired, cancelled, expired uint64) []byte {
	b := binary.AppendUvarint(nil, fired)
	b = binary.AppendUvarint(b, cancelled)
	return binary.AppendUvarint(b, expired)
}

func decodeLedger(b []byte) (fired, cancelled, expired uint64, ok bool) {
	var v [3]uint64
	for i := range v {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, 0, 0, false
		}
		v[i], b = x, b[n:]
	}
	return v[0], v[1], v[2], len(b) == 0
}

// ResetTo discards the state and rebuilds it from seed — what a
// replication follower does when the primary compacts its epoch away:
// the new snapshot is the full live state, and stale local records must
// not survive it (a timer cancelled during the gap would otherwise
// resurrect as outstanding). The pointer identity is preserved so
// holders of the *State keep seeing the rebuilt view.
func (s *State) ResetTo(seed []Record) {
	*s = State{
		Timers:   make(map[uint64]TimerState, len(seed)),
		Payloads: make(map[uint64][]byte),
		Leases:   make(map[uint64]LeaseState),
	}
	for _, rec := range seed {
		s.Apply(rec)
	}
}
