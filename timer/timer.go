// Package timer is the public API of this repository: a timer facility
// implementing every scheme from Varghese & Lauck, "Hashed and
// Hierarchical Timing Wheels: Data Structures for the Efficient
// Implementation of a Timer Facility" (SOSP 1987), plus a goroutine-safe
// real-time Runtime built on the schemes the paper recommends.
//
// # Virtual-time facilities
//
// A Scheme is the paper's four-routine timer module operating in virtual
// time: StartTimer and StopTimer are the client calls, Tick is
// PER_TICK_BOOKKEEPING, and expiry actions run as callbacks. Nine
// constructors cover the paper's design space plus one post-1987
// contender:
//
//	NewStraightforward     Scheme 1: per-tick decrement of every timer
//	NewOrderedList         Scheme 2: sorted timer queue (VMS/UNIX style)
//	NewTree                Scheme 3: priority-queue (heap/leftist/skew/BST)
//	NewWheel               Scheme 4: timing wheel, bounded intervals
//	NewHashedWheelSorted   Scheme 5: hashed wheel, sorted buckets
//	NewHashedWheel         Scheme 6: hashed wheel, unsorted buckets
//	NewHierarchicalWheel   Scheme 7: hierarchy of wheels
//	NewHybridWheel         the section 5 wheel+overflow combination
//	NewGroupedQueue        grouped sorting queue: O(1) update-in-place
//	                       Reset for reset-dominated workloads
//
// Instrument wraps any scheme with operation counters. Virtual-time
// facilities are single-threaded: they suit simulations,
// deterministic tests, and embedding into an event loop that already
// owns the clock.
//
// # Real-time runtime
//
// Runtime drives any Scheme from the wall clock with a configurable tick
// granularity and exposes AfterFunc/Schedule in time.Duration terms; see
// NewRuntime. It defaults to a Scheme 6 hashed wheel, the paper's
// recommendation for a general timer module.
//
// # Hardening
//
// The Runtime treats misbehaving callbacks and clock anomalies as
// first-class inputs: expiry actions run under a recovery barrier
// (WithPanicHandler), can be measured against a time budget
// (WithCallbackBudget) and dispatched to a bounded worker pool with
// explicit overload shedding (WithAsyncDispatch), and wall-clock jumps
// and backward steps are detected and drained in bounded batches
// (WithMaxCatchUp). Health reports the resulting counters; Sharded
// aggregates them across shards (ShardHealth has the per-shard view).
//
// # Overload management
//
// Under saturation the Runtime degrades by declared priority rather
// than by luck. Each schedule call may carry WithPriority — BestEffort
// work is shed first (most-overdue first), Normal next, and Critical
// never: a Critical expiry the pool cannot admit runs inline on the
// driver. Shed Normal-class actions can re-arm themselves through the
// wheel with doubling backoff (WithShedRetry) before a definitive drop
// is reported to WithShedHandler. Shutdown is Drain: admission stops
// (ErrDraining), outstanding timers fire now, fire at their natural
// deadlines within a grace window, or are cancelled (DrainPolicy), and
// the DrainReport plus Health().AbandonedOnClose account for every
// timer exactly. Close is Drain with zero grace.
package timer

import (
	"timingwheels/internal/baseline"
	"timingwheels/internal/core"
	"timingwheels/internal/gsq"
	"timingwheels/internal/hashwheel"
	"timingwheels/internal/hier"
	"timingwheels/internal/hybrid"
	"timingwheels/internal/tree"
	"timingwheels/internal/wheel"
)

// Tick is a point in (or span of) virtual time, in clock-tick units.
type Tick = core.Tick

// ID identifies one outstanding timer within a Scheme.
type ID = core.ID

// Callback is a timer's expiry action, run synchronously from Tick.
type Callback = core.Callback

// Handle is the reference returned by StartTimer and accepted by
// StopTimer, giving O(1) cancellation.
type Handle = core.Handle

// Scheme is the four-routine timer-module model of the paper; see the
// package documentation for the available implementations.
type Scheme = core.Facility

// Errors returned by Scheme implementations.
var (
	// ErrNonPositiveInterval reports a StartTimer interval < 1 tick.
	ErrNonPositiveInterval = core.ErrNonPositiveInterval
	// ErrIntervalOutOfRange reports an interval the scheme cannot store.
	ErrIntervalOutOfRange = core.ErrIntervalOutOfRange
	// ErrTimerNotPending reports StopTimer on a fired or stopped timer.
	ErrTimerNotPending = core.ErrTimerNotPending
	// ErrForeignHandle reports a handle from a different facility.
	ErrForeignHandle = core.ErrForeignHandle
	// ErrNilCallback reports StartTimer with a nil expiry action.
	ErrNilCallback = core.ErrNilCallback
)

// SearchDirection selects Scheme 2's insertion search end.
type SearchDirection = baseline.SearchDirection

// Scheme 2 search directions.
const (
	// SearchFromFront walks from the earliest-expiring timer.
	SearchFromFront = baseline.SearchFromFront
	// SearchFromRear walks from the latest-expiring timer — O(1) when
	// all intervals are equal.
	SearchFromRear = baseline.SearchFromRear
)

// TreeKind selects Scheme 3's priority-queue implementation.
type TreeKind = tree.Kind

// Scheme 3 priority-queue kinds.
const (
	// TreeHeap is a binary min-heap.
	TreeHeap = tree.KindHeap
	// TreeLeftist is a leftist tree.
	TreeLeftist = tree.KindLeftist
	// TreeSkew is a skew heap.
	TreeSkew = tree.KindSkew
	// TreeBST is an unbalanced binary search tree (degenerates to a list
	// under equal intervals, as the paper warns).
	TreeBST = tree.KindBST
	// TreeAVL is a height-balanced tree: no degeneration, at the price
	// of O(log n) rebalancing on STOP_TIMER (Figure 6's note).
	TreeAVL = tree.KindAVL
	// TreePairing is a pairing heap: O(1) insert, O(log n) amortized
	// delete-min.
	TreePairing = tree.KindPairing
)

// MigrationPolicy selects Scheme 7's precision/work trade-off.
type MigrationPolicy = hier.Policy

// Scheme 7 migration policies.
const (
	// MigrateAlways migrates timers to the finest wheel: exact expiry.
	MigrateAlways = hier.MigrateAlways
	// MigrateNever fires timers at their insertion level's granularity:
	// zero migrations, up to 50% precision loss.
	MigrateNever = hier.MigrateNever
	// MigrateOnce allows one migration to the next finer level.
	MigrateOnce = hier.MigrateOnce
)

// HierarchyDayRadices is the paper's worked example: seconds, minutes,
// hours, and days wheels spanning 100 days in 244 slots.
var HierarchyDayRadices = append([]int(nil), hier.DayRadices...)

// NewStraightforward returns a Scheme 1 facility: O(1) start/stop, O(n)
// per-tick. Appropriate when few timers are outstanding or per-tick work
// is offloaded to hardware.
func NewStraightforward() Scheme { return baseline.NewScheme1(nil) }

// NewOrderedList returns a Scheme 2 facility: the sorted timer queue used
// by VMS and UNIX. O(n) start, O(1) stop and per-tick.
func NewOrderedList(direction SearchDirection) Scheme {
	return baseline.NewScheme2(direction, nil)
}

// NewTree returns a Scheme 3 facility over the chosen priority queue:
// O(log n) start and stop, O(1) per-tick.
func NewTree(kind TreeKind) Scheme { return tree.NewScheme3(kind, nil) }

// NewWheel returns a Scheme 4 timing wheel accepting intervals up to
// maxInterval ticks: O(1) start, stop, and per-tick.
func NewWheel(maxInterval int) Scheme { return wheel.NewScheme4(maxInterval, nil) }

// NewHashedWheelSorted returns a Scheme 5 facility: a hashed wheel with
// sorted per-bucket lists. O(1) average start if the outstanding count
// stays below size and the hash spreads; O(n) worst case.
func NewHashedWheelSorted(size int) Scheme { return hashwheel.NewScheme5(size, nil) }

// NewHashedWheel returns a Scheme 6 facility: a hashed wheel with
// unsorted per-bucket lists — O(1) worst-case start and stop, n/size
// amortized per-tick work. Power-of-two sizes index by AND mask, as the
// paper recommends.
func NewHashedWheel(size int) Scheme { return hashwheel.NewScheme6(size, nil) }

// NewHierarchicalWheel returns a Scheme 7 facility: a hierarchy of wheels
// with the given per-level slot counts (finest first). A timer migrates
// toward the finest wheel per the policy; the maximum interval is the
// product of the radices minus one.
func NewHierarchicalWheel(radices []int, policy MigrationPolicy) Scheme {
	return hier.NewScheme7(radices, policy, nil)
}

// NewHybridWheel returns the section 5 combination: a Scheme 4 wheel of
// the given size for timers due within size ticks, backed by a priority
// queue that parks longer timers until they come within wheel range
// (each migrates exactly once). Unbounded intervals with wheel-grade
// constants for the common short-timer case.
func NewHybridWheel(size int) Scheme { return hybrid.New(size, nil) }

// NewGroupedQueue returns a grouped sorting queue (the "dynamic update"
// structure of the post-1987 timer literature): timers are grouped by
// coarse deadline band — bands slots of width ticks each, width a power
// of two — and a band is sorted only when it comes due. Start, stop,
// and (the headline) Reset are O(1) worst case: a reset relinks the
// entry into its new band with no cascade (Scheme 7) and no
// per-revolution visits (Scheme 6), which suits timers reset on nearly
// every event (retransmit timers reset per ACK, idle timers per
// packet). Timers a reset moves away before
// their band comes due are never sorted at all. Size bands*width to
// cover the common interval range, like a wheel's slot count.
func NewGroupedQueue(bands int, width Tick) Scheme { return gsq.New(bands, width, nil) }

// AdvanceBy advances a virtual-time Scheme by n ticks, using the
// scheme's fast path (ordered list and tree schemes skip idle spans in
// one comparison). It returns the number of timers fired.
func AdvanceBy(s Scheme, n Tick) int { return core.AdvanceBy(s, n) }
