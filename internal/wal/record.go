// Package wal is the durability layer under cmd/twd: an append-only,
// length-prefixed, CRC32-framed write-ahead log of timer admissions,
// cancellations, resets, firings, and lease transitions, with
// group-commit fsync batching, epoch snapshots for compaction, and a
// reader that recovers cleanly from a torn or truncated tail.
//
// The paper's timer facility is a building block for systems that must
// not lose armed timers across failures; Lawn-style TTL/session-expiry
// services (arXiv:1906.10860) front millions of clients with exactly
// this deployment shape, and re-deriving timer state on restart is the
// cost a replayable admission log eliminates (cf. CHRONOS,
// arXiv:2503.01444). The log records wall-clock deadlines — not
// intervals — so replay after any amount of downtime reconstructs the
// exact outstanding set: timers whose deadline passed while the process
// was down fire immediately with their recorded lag.
//
// # Frame format
//
// Every record is one frame:
//
//	| len uint32 LE | crc uint32 LE | body (len bytes) |
//
// where crc is the CRC-32C (Castagnoli) checksum of the body and the
// body is a fixed header plus the payload:
//
//	| op u8 | class u8 | id u64 LE | lease u64 LE | deadline i64 LE | payload |
//
// A reader accepts a frame only if the length is sane and the checksum
// matches; the first frame that fails either test ends the log — a torn
// or truncated tail (a crash mid-write, a half-synced page) costs the
// frames at and after the tear, never the valid prefix before it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Op is a record's operation kind.
type Op uint8

// Record operations. The zero value is invalid so that zero-filled disk
// blocks (a common torn-tail shape) can never decode as a record.
const (
	// OpSchedule admits one timer: ID, Class, owning Lease (0 = none),
	// absolute wall Deadline (unix nanoseconds), and the opaque Payload
	// the client attached.
	OpSchedule Op = 1 + iota
	// OpCancel cancels timer ID before its deadline.
	OpCancel
	// OpReset moves timer ID's deadline to Deadline.
	OpReset
	// OpFire records that timer ID's expiry was delivered. A timer with
	// no fire and no cancel record is outstanding and replays on boot.
	OpFire
	// OpLeaseGrant creates lease ID expiring at Deadline.
	OpLeaseGrant
	// OpLeaseRenew moves lease ID's expiry to Deadline.
	OpLeaseRenew
	// OpLeaseExpire records that lease ID expired or was released; the
	// daemon logs an OpCancel per garbage-collected timer alongside it.
	OpLeaseExpire
	// OpSeal marks a clean shutdown: every in-memory transition reached
	// the log before the process exited. It is informational — recovery
	// is identical either way — and any later record voids it.
	OpSeal
	// OpHighWater pins the timer-ID allocator's high-water mark: ID is
	// the largest timer ID ever issued. Snapshots write one so that
	// compaction — which discards settled history — cannot let a restart
	// re-issue the ID of an already-acked fired or cancelled timer.
	OpHighWater

	opMax = OpHighWater
)

// String returns the op's name.
func (o Op) String() string {
	switch o {
	case OpSchedule:
		return "schedule"
	case OpCancel:
		return "cancel"
	case OpReset:
		return "reset"
	case OpFire:
		return "fire"
	case OpLeaseGrant:
		return "lease-grant"
	case OpLeaseRenew:
		return "lease-renew"
	case OpLeaseExpire:
		return "lease-expire"
	case OpSeal:
		return "seal"
	case OpHighWater:
		return "high-water"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Record is one logged transition. ID is the daemon-assigned timer or
// lease identity (stable across restarts, unlike the facility's
// in-memory IDs); Deadline is an absolute wall-clock instant in unix
// nanoseconds, the representation that survives downtime.
type Record struct {
	Op       Op
	Class    uint8
	ID       uint64
	Lease    uint64
	Deadline int64
	Payload  []byte
}

// Frame geometry.
const (
	frameHeaderSize  = 8  // len + crc
	recordHeaderSize = 26 // op + class + id + lease + deadline
	// MaxPayload bounds one record's payload. The bound is a recovery
	// aid as much as a resource cap: a corrupt length field can never
	// make the reader attempt a multi-gigabyte allocation.
	MaxPayload = 1 << 20
	maxBody    = recordHeaderSize + MaxPayload
)

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors surfaced by encoding and recovery.
var (
	// ErrPayloadTooLarge reports a record payload over MaxPayload.
	ErrPayloadTooLarge = errors.New("wal: payload exceeds MaxPayload")
	// ErrBadOp reports an attempt to append a record with an invalid op.
	ErrBadOp = errors.New("wal: invalid record op")
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrFailed reports an operation on a log that hit an unrecoverable
	// I/O error (a failed fsync, or a failed write of frames Append had
	// already accepted). Durability can no longer be promised; the
	// process must restart and recover from disk.
	ErrFailed = errors.New("wal: log failed; restart and recover")
	// ErrCorruptFrame reports bytes that can never extend into a valid
	// frame: an insane length field, a checksum mismatch over a complete
	// body, or an invalid op. A streaming reader must resynchronize (or
	// re-seed) — waiting for more bytes cannot help.
	ErrCorruptFrame = errors.New("wal: corrupt frame")
	// errShortFrame reports a prefix that could still become a valid
	// frame once more bytes arrive. Internal: FrameDecoder.Next maps it
	// to the (zero, 0, nil) "need more input" return.
	errShortFrame = errors.New("wal: short frame")
)

// appendFrame encodes rec as one frame onto b and returns the extended
// slice.
func appendFrame(b []byte, rec Record) []byte {
	bodyLen := recordHeaderSize + len(rec.Payload)
	b = binary.LittleEndian.AppendUint32(b, uint32(bodyLen))
	crcAt := len(b)
	b = append(b, 0, 0, 0, 0) // crc placeholder
	bodyAt := len(b)
	b = append(b, byte(rec.Op), rec.Class)
	b = binary.LittleEndian.AppendUint64(b, rec.ID)
	b = binary.LittleEndian.AppendUint64(b, rec.Lease)
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.Deadline))
	b = append(b, rec.Payload...)
	crc := crc32.Checksum(b[bodyAt:], castagnoli)
	binary.LittleEndian.PutUint32(b[crcAt:], crc)
	return b
}

// frameSize reports the on-disk size of rec's frame.
func frameSize(rec Record) int {
	return frameHeaderSize + recordHeaderSize + len(rec.Payload)
}

// decodeFrame decodes the frame at the start of b. ok reports whether a
// complete, checksum-valid frame was present; n is the frame's total
// length when ok. A false return means the tail from here on is torn,
// truncated, or corrupt — a file reader cannot distinguish these, and
// does not need to: the log ends at the last valid frame.
func decodeFrame(b []byte) (rec Record, n int, ok bool) {
	rec, n, err := scanFrame(b)
	return rec, n, err == nil
}

// scanFrame decodes the frame at the start of b, distinguishing a
// prefix that needs more bytes (errShortFrame) from bytes that can
// never become a frame (ErrCorruptFrame). A byte-stream reader needs
// the distinction a file reader doesn't: short means wait, corrupt
// means resynchronize.
func scanFrame(b []byte) (rec Record, n int, err error) {
	if len(b) < frameHeaderSize {
		return rec, 0, errShortFrame
	}
	bodyLen := int(binary.LittleEndian.Uint32(b))
	if bodyLen < recordHeaderSize || bodyLen > maxBody {
		return rec, 0, ErrCorruptFrame
	}
	if len(b) < frameHeaderSize+bodyLen {
		return rec, 0, errShortFrame
	}
	crc := binary.LittleEndian.Uint32(b[4:])
	body := b[frameHeaderSize : frameHeaderSize+bodyLen]
	if crc32.Checksum(body, castagnoli) != crc {
		return rec, 0, ErrCorruptFrame
	}
	rec.Op = Op(body[0])
	if rec.Op == 0 || rec.Op > opMax {
		return rec, 0, ErrCorruptFrame
	}
	rec.Class = body[1]
	rec.ID = binary.LittleEndian.Uint64(body[2:])
	rec.Lease = binary.LittleEndian.Uint64(body[10:])
	rec.Deadline = int64(binary.LittleEndian.Uint64(body[18:]))
	if p := body[recordHeaderSize:]; len(p) > 0 {
		rec.Payload = append([]byte(nil), p...)
	}
	return rec, frameHeaderSize + bodyLen, nil
}
