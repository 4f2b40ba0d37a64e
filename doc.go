// Package timingwheels is a from-scratch Go reproduction of Varghese &
// Lauck, "Hashed and Hierarchical Timing Wheels: Data Structures for the
// Efficient Implementation of a Timer Facility" (SOSP 1987).
//
// The public API lives in the timer subpackage; the per-scheme
// implementations and experiment substrates live under internal. The
// benchmarks in this root package (bench_test.go) regenerate the wall-
// clock counterparts of every figure and table in the paper; cmd/twbench
// regenerates the abstract-cost versions.
//
// # The Reset contract
//
// Re-arming a live timer (the retransmission idiom: every ACK pushes
// the timeout out) is a first-class verb with one behavior and two
// report precisions. At the facility layer, the production schemes
// (Schemes 5, 6, 7, the hybrid, and the grouped sorting queue) implement
// core.Resetter and re-arm the same entry in place — unlink, re-place,
// relink; a reset of a fired or stopped timer is refused with no side
// effects. At the runtime layer,
// Timer.Reset re-arms unconditionally: a synchronous Runtime reports
// wasPending exactly, while a WithIngress Runtime's report is advisory
// (true whenever no Stop was committed, even if the action already
// ran) and only a committed Stop refuses a Reset (ErrStopPending).
// DESIGN.md section 16 states the contract and the gsq invariants in
// full; internal/schemetest pins both with conformance and
// differential model-checker suites.
package timingwheels
