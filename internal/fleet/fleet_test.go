package fleet

import (
	"testing"
	"time"
)

// TestRunSmallFleetClosesLedger drives a scaled-down fleet (20k conns,
// 2 virtual hours) and checks the report: the conservation ledger
// closes exactly, every workload population saw traffic, and virtual
// delivery lag stays within a couple of ticks.
func TestRunSmallFleetClosesLedger(t *testing.T) {
	cfg := Config{
		Conns:    20_000,
		Shards:   2,
		Duration: 2 * time.Hour,
		Seed:     7,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.LedgerOK {
		t.Fatalf("conservation ledger open: %s", rep.Ledger())
	}
	if rep.Started == 0 || rep.Delivered == 0 {
		t.Fatalf("no traffic simulated: %s", rep.Ledger())
	}
	if rep.IdleCloses == 0 {
		t.Error("no idle timeouts fired")
	}
	if rep.Reopens == 0 {
		t.Error("no closed connections reopened")
	}
	if rep.RetransStarts == 0 || rep.Acks == 0 {
		t.Errorf("retransmission machinery idle: starts=%d acks=%d", rep.RetransStarts, rep.Acks)
	}
	if rep.RefillTicks == 0 {
		t.Error("rate-limiter tickers never fired")
	}
	// The virtual driver lands on deadline ticks exactly; anything past
	// two ticks of lag means it overshot an expiry.
	if maxLag := 2 * (100 * time.Millisecond).Nanoseconds(); rep.LagP999NS > maxLag {
		t.Errorf("p99.9 firing lag %dns exceeds two ticks", rep.LagP999NS)
	}
}

// TestRunDeterministic: same config and seed, same traffic — the fleet
// replays exactly, which is the point of virtual time.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{Conns: 5_000, Shards: 2, Duration: time.Hour, Seed: 42}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Started != b.Started || a.Delivered != b.Delivered || a.Stopped != b.Stopped ||
		a.Activities != b.Activities || a.Retransmissions != b.Retransmissions || a.Acks != b.Acks {
		t.Fatalf("two identical runs diverged:\n  %s\n  %s", a.Ledger(), b.Ledger())
	}
}
