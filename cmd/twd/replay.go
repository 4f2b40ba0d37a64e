package main

import (
	"fmt"
	"time"

	"timingwheels/internal/wal"
	"timingwheels/timer"
)

// replayChunk bounds one ScheduleBatch during boot replay.
const replayChunk = 512

// replay arms the State: every outstanding timer goes back into the
// facility at its durable wall-clock deadline (a deadline that passed
// during downtime arms at the minimum delay and fires on the first
// poll, with the true lag recorded), and every live lease gets its
// owned-timer set and a watchdog for the rest of its TTL, so a client
// that died along with the daemon is still garbage-collected.
//
// Timers are armed straight from the State's map, a chunk at a time,
// and before leases: a lease's GC must find every owned handle already
// published. Nothing is written to the WAL for a live lease — the log
// already says all of this.
func (s *server) replay() error {
	st := s.state
	reqs := make([]timer.Req, 0, replayChunk)
	ids := make([]uint64, 0, replayChunk)
	s.mu.Lock()
	// The allocator resumes from the replayed high-water mark — the max
	// over every timer ID the log ever named, including the snapshot's
	// explicit OpHighWater pin — not from the outstanding set, which
	// compaction shrinks: re-issuing a settled timer's ID would let a
	// client holding the stale ID stop an unrelated new timer.
	s.nextID.Store(st.NextID)
	s.handles = make(map[uint64]*timer.Timer, len(st.Timers))
	now := s.clk.Now().UnixNano()
	for id, ts := range st.Timers {
		reqs = append(reqs, armReq(id, ts.Deadline, now))
		ids = append(ids, id)
		if len(reqs) == replayChunk {
			if err := s.armChunkLocked(ids, reqs); err != nil {
				s.mu.Unlock()
				return err
			}
			reqs, ids = reqs[:0], ids[:0]
			now = s.clk.Now().UnixNano()
		}
	}
	if err := s.armChunkLocked(ids, reqs); err != nil {
		s.mu.Unlock()
		return err
	}

	// Leases, each with the timers the State says it owns. A timer that
	// fires between here and its lease's restore is simply
	// detached-by-absence: the lease GC skips timers it cannot find.
	owned := make(map[uint64][]uint64)
	for id, ts := range st.Timers {
		if ts.Lease != 0 {
			owned[ts.Lease] = append(owned[ts.Lease], id)
		}
	}
	leases := make(map[uint64]wal.LeaseState, len(st.Leases))
	for id, ls := range st.Leases {
		leases[id] = ls
	}
	s.mu.Unlock()

	// A lease already past its TTL is a client that died while the
	// daemon was down (or, on a promoted standby, died with the old
	// primary). Its timers are GC'd synchronously HERE — before the
	// daemon starts admitting — not via a watchdog: an admission racing
	// the watchdog could attach to a lease that is already dead, and on
	// a promoted standby the window would span the whole promotion.
	now = s.clk.Now().UnixNano()
	for id, ls := range leases {
		if ls.Expiry <= now {
			s.mu.Lock()
			victims := s.expireLeaseLocked(id, owned[id])
			s.mu.Unlock()
			s.fac.StopBatch(victims)
			continue
		}
		if err := s.leases.Watch(id, time.Duration(ls.Expiry-now), owned[id]); err != nil {
			return fmt.Errorf("twd: watch lease %d: %w", id, err)
		}
	}
	return nil
}

// armChunkLocked arms one replay chunk and publishes the handles of the
// timers still in the State (one that fired already settled like any
// in-flight admission). It drops s.mu around the facility call, which
// is never made under it, and returns holding it again.
func (s *server) armChunkLocked(ids []uint64, reqs []timer.Req) error {
	if len(reqs) == 0 {
		return nil
	}
	s.mu.Unlock()
	timers, err := s.fac.ScheduleBatch(reqs)
	s.mu.Lock()
	if err != nil {
		return fmt.Errorf("twd: replay chunk at id %d: %w", ids[0], err)
	}
	for i, id := range ids {
		if _, live := s.state.Timers[id]; live {
			s.handles[id] = timers[i]
		}
	}
	return nil
}
