// Package core defines the timer-module model from Varghese & Lauck,
// "Hashed and Hierarchical Timing Wheels" (SOSP 1987), section 2.
//
// A timer facility has four component routines:
//
//	START_TIMER(Interval, Request_ID, Expiry_Action)
//	STOP_TIMER(Request_ID)
//	PER_TICK_BOOKKEEPING
//	EXPIRY_PROCESSING
//
// Every scheme in this repository implements the Facility interface, which
// is a direct transliteration of that model: StartTimer and StopTimer are
// the client-facing calls, Tick is PER_TICK_BOOKKEEPING, and expiry
// processing happens by invoking the caller-supplied callback.
//
// Facilities in this package operate in virtual time measured in Ticks and
// are not safe for concurrent use; the timer package wraps them with a
// real-time, goroutine-safe runtime.
package core

import (
	"errors"
	"fmt"
)

// Tick is a point in (or span of) virtual time, measured in clock-tick
// units of granularity T (section 2 of the paper). Facilities begin at
// time 0 and advance by exactly one tick per call to Tick.
type Tick int64

// ID identifies one outstanding timer within a facility. IDs are unique
// over the lifetime of a facility and are never reused.
type ID uint64

// Callback is the EXPIRY_PROCESSING action supplied to StartTimer. It runs
// synchronously from within Tick when the timer expires. A callback may
// start or stop other timers on the same facility (re-entrancy is part of
// the conformance suite), but must not call Tick.
type Callback func(id ID)

// Handle is the client's reference to one outstanding timer, returned by
// StartTimer and accepted by StopTimer. Handles embody the paper's
// observation (section 3.2) that if lists are doubly linked and
// START_TIMER stores a pointer to the element, STOP_TIMER can unlink in
// O(1) time. A Handle is owned by the facility that issued it.
type Handle interface {
	// TimerID reports the identity of the timer this handle refers to.
	TimerID() ID
}

// Facility is the four-routine timer module model. Implementations are
// single-threaded and virtual-timed.
type Facility interface {
	// Name reports the scheme's short name, e.g. "scheme6".
	Name() string

	// StartTimer starts a timer that expires after interval ticks: a timer
	// started at time t with interval d expires during the Tick call that
	// moves time to t+d. The returned handle allows O(1) cancellation.
	//
	// StartTimer fails with ErrNonPositiveInterval if interval < 1, and
	// with ErrIntervalOutOfRange if the scheme cannot represent the
	// interval (e.g. Scheme 4 beyond MaxInterval).
	StartTimer(interval Tick, cb Callback) (Handle, error)

	// StopTimer cancels an outstanding timer. It fails with
	// ErrTimerNotPending if the timer already expired or was already
	// stopped, and with ErrForeignHandle if the handle was issued by a
	// different facility or scheme.
	StopTimer(h Handle) error

	// Tick performs PER_TICK_BOOKKEEPING: it advances the current time by
	// one tick and fires every timer that expires at the new time,
	// invoking callbacks synchronously. It returns the number of timers
	// that expired.
	Tick() int

	// Now reports the current virtual time. A new facility starts at 0.
	Now() Tick

	// Len reports the number of outstanding (started, not yet fired or
	// stopped) timers.
	Len() int
}

// Resetter is an optional extension for facilities that can re-arm an
// outstanding timer in place — the "dynamic update" operation of the
// grouped-sorting-queue literature (see PAPERS.md): TCP retransmit
// timers are reset on every ACK, idle timers on every packet, so on
// reset-dominated workloads update-in-place beats stop+start. Every
// EntryScheme implements it.
//
// ResetTimer re-arms the timer h refers to so it expires interval ticks
// from now, keeping the same entry and the same ID — the handle remains
// valid. It fails with ErrTimerNotPending (and has no side effects) if
// the timer already fired or was stopped, with ErrNonPositiveInterval
// if interval < 1, and with ErrForeignHandle for a handle issued
// elsewhere. Schemes without this extension are reset by the caller as
// StopTimer followed by StartTimer.
type Resetter interface {
	ResetTimer(h Handle, interval Tick) error
}

// Advancer is implemented by facilities that can skip over several ticks
// more efficiently than calling Tick in a loop.
type Advancer interface {
	// Advance calls Tick n times, returning the total number of expiries.
	Advance(n Tick) int
}

// NextExpirer is implemented by facilities that can report when they
// next have work — the property section 3.2 exploits for hosts with
// "hardware support to maintain a single timer": the hardware timer is
// set to the head-of-queue expiry and "interrupts the host only when a
// timer actually expires", instead of on every clock tick. Ordered-list
// and tree facilities answer in O(1), the bounded and hybrid wheels and
// the hierarchy with one occupancy-bitmap probe per wheel; the hashed
// wheels cannot (their slots mix revolutions).
//
// The answer is a lower bound, not necessarily an expiry: a hierarchy
// reports the next tick at which it cascades or fires, whichever comes
// first. A host that sleeps until the reported tick, advances to it, and
// asks again fires every timer on time; it may wake on ticks that fire
// nothing.
type NextExpirer interface {
	// NextExpiry reports a tick no later than the earliest outstanding
	// expiry, and no earlier than the next tick at which Tick does any
	// work; ok is false when no timers are outstanding.
	NextExpiry() (when Tick, ok bool)
}

// AdvanceBy advances f by n ticks, using the facility's Advancer fast path
// when available. It returns the total number of timers fired.
func AdvanceBy(f Facility, n Tick) int {
	if a, ok := f.(Advancer); ok {
		return a.Advance(n)
	}
	total := 0
	for i := Tick(0); i < n; i++ {
		total += f.Tick()
	}
	return total
}

// Errors shared by all schemes.
var (
	// ErrNonPositiveInterval reports a StartTimer interval < 1 tick.
	ErrNonPositiveInterval = errors.New("timer: interval must be at least one tick")

	// ErrIntervalOutOfRange reports an interval a bounded scheme cannot
	// store (Scheme 4's MaxInterval, or overflow of the tick type).
	ErrIntervalOutOfRange = errors.New("timer: interval out of range for this scheme")

	// ErrTimerNotPending reports StopTimer on a timer that already fired
	// or was already stopped.
	ErrTimerNotPending = errors.New("timer: timer is not pending")

	// ErrForeignHandle reports a handle passed to a facility other than
	// the one that issued it.
	ErrForeignHandle = errors.New("timer: handle was issued by a different facility")

	// ErrNilCallback reports StartTimer with a nil expiry action.
	ErrNilCallback = errors.New("timer: nil expiry callback")
)

// State is the lifecycle state of a timer entry.
type State uint8

// Timer lifecycle: Idle until armed, then Pending until it either Fires
// (expiry processing ran) or is Stopped (cancelled before expiry). Idle
// is the zero value, so a fresh Entry is not mistaken for a pending one.
const (
	StateIdle State = iota
	StatePending
	StateFired
	StateStopped
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StatePending:
		return "pending"
	case StateFired:
		return "fired"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// CheckInterval validates a StartTimer interval and callback, returning
// the error every scheme reports for bad arguments.
func CheckInterval(interval Tick, cb Callback) error {
	if cb == nil {
		return ErrNilCallback
	}
	if interval < 1 {
		return ErrNonPositiveInterval
	}
	return nil
}
