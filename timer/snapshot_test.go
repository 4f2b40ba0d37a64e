package timer

import (
	"testing"
	"time"
)

func TestSnapshotSingleRuntime(t *testing.T) {
	rt, fc := newManualRuntime(t) // default scheme: hashed wheel, 4096 slots
	for i := 0; i < 3; i++ {
		if _, err := rt.AfterFunc(20*time.Millisecond, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	victim, err := rt.AfterFunc(time.Hour, func() {})
	if err != nil {
		t.Fatal(err)
	}

	mid := rt.Snapshot()
	if mid.Outstanding != 4 {
		t.Fatalf("Outstanding=%d, want 4", mid.Outstanding)
	}
	if mid.Wheel.Slots != 4096 {
		t.Fatalf("Wheel.Slots=%d, want 4096", mid.Wheel.Slots)
	}
	if mid.Wheel.OccupiedSlots != 2 { // three timers share a slot, one alone
		t.Fatalf("Wheel.OccupiedSlots=%d, want 2", mid.Wheel.OccupiedSlots)
	}
	if mid.Wheel.MaxSlotDepth != 3 {
		t.Fatalf("Wheel.MaxSlotDepth=%d, want 3", mid.Wheel.MaxSlotDepth)
	}

	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	victim.Stop()

	s := rt.Snapshot()
	if s.Scheme == "" || s.Shards != 1 || s.Granularity != 10*time.Millisecond {
		t.Fatalf("header wrong: %+v", s)
	}
	if s.Started != 4 || s.Expired != 3 || s.Stopped != 1 || s.Outstanding != 0 {
		t.Fatalf("counters: started=%d expired=%d stopped=%d outstanding=%d",
			s.Started, s.Expired, s.Stopped, s.Outstanding)
	}
	if s.FiringLagNS.Count != 3 {
		t.Fatalf("FiringLagNS.Count=%d, want 3", s.FiringLagNS.Count)
	}
	if s.CallbackNS.Count != 3 {
		t.Fatalf("CallbackNS.Count=%d, want 3", s.CallbackNS.Count)
	}
	// The tick-batch histogram saw every poll, and its Sum is the number
	// of expiries delivered.
	if s.TickBatch.Count == 0 || s.TickBatch.Sum != 3 {
		t.Fatalf("TickBatch count=%d sum=%d, want count>0 sum=3",
			s.TickBatch.Count, s.TickBatch.Sum)
	}
	if s.Health.Delivered != 3 {
		t.Fatalf("Health.Delivered=%d, want 3", s.Health.Delivered)
	}
}

func TestSnapshotFiringLagReflectsLateDelivery(t *testing.T) {
	rt, fc := newManualRuntime(t) // 10ms granularity
	if _, err := rt.AfterFunc(10*time.Millisecond, func() {}); err != nil {
		t.Fatal(err)
	}
	// Let the deadline pass by 5 extra ticks before polling: the timer
	// fires 5 ticks (50ms) late and the lag histogram must say so.
	fc.Advance(60 * time.Millisecond)
	rt.Poll()
	s := rt.Snapshot()
	if s.FiringLagNS.Count != 1 {
		t.Fatalf("lag count=%d, want 1", s.FiringLagNS.Count)
	}
	lag := s.FiringLagNS.Max
	if lag < int64(40*time.Millisecond) || lag > int64(60*time.Millisecond) {
		t.Fatalf("recorded lag %v, want ~50ms", time.Duration(lag))
	}
}

func TestSnapshotSeesThroughInstrument(t *testing.T) {
	scheme, _ := Instrument(NewHashedWheel(64))
	rt, _ := newManualRuntime(t, WithScheme(scheme))
	if _, err := rt.AfterFunc(50*time.Millisecond, func() {}); err != nil {
		t.Fatal(err)
	}
	s := rt.Snapshot()
	if s.Wheel.Slots != 64 {
		t.Fatalf("Wheel.Slots=%d through Instrument wrapper, want 64", s.Wheel.Slots)
	}
	if s.Wheel.OccupiedSlots != 1 {
		t.Fatalf("Wheel.OccupiedSlots=%d, want 1", s.Wheel.OccupiedSlots)
	}
}

func TestSnapshotHierarchyGauges(t *testing.T) {
	rt, fc := newManualRuntime(t,
		WithScheme(NewHierarchicalWheel([]int{8, 8, 8}, MigrateOnce)))
	// Deadline beyond the finest level: lands on a coarser level, then
	// migrates down as time passes.
	if _, err := rt.AfterFunc(200*time.Millisecond, func() {}); err != nil { // 20 ticks
		t.Fatal(err)
	}
	s := rt.Snapshot()
	if len(s.Wheel.LevelOccupancy) != 3 {
		t.Fatalf("LevelOccupancy=%v, want 3 levels", s.Wheel.LevelOccupancy)
	}
	total := 0
	for _, n := range s.Wheel.LevelOccupancy {
		total += n
	}
	if total != 1 {
		t.Fatalf("LevelOccupancy=%v, want total 1", s.Wheel.LevelOccupancy)
	}
	fc.Advance(300 * time.Millisecond)
	rt.Poll()
	s = rt.Snapshot()
	if s.Wheel.Migrations == 0 {
		t.Fatal("no migrations recorded after a cross-level timer fired")
	}
	if s.Expired != 1 {
		t.Fatalf("Expired=%d, want 1", s.Expired)
	}
}

// TestShardedSchemeFactory: each shard must get its own scheme instance
// (WithScheme would hand every shard the same wheel, racing on it); the
// merged snapshot's slot gauge proves there are n distinct wheels.
func TestShardedSchemeFactory(t *testing.T) {
	built := 0
	s := NewSharded(4,
		WithGranularity(time.Millisecond),
		WithSchemeFactory(func() Scheme { built++; return NewHashedWheel(128) }))
	defer s.Close()
	if built != 4 {
		t.Fatalf("factory called %d times, want 4", built)
	}
	for i := 0; i < 16; i++ {
		if _, err := s.AfterFuncKey(uint64(i), time.Hour, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if snap.Wheel.Slots != 4*128 {
		t.Fatalf("merged slots=%d, want 4 distinct 128-slot wheels", snap.Wheel.Slots)
	}
	if snap.Outstanding != 16 {
		t.Fatalf("outstanding=%d, want 16", snap.Outstanding)
	}
}

func TestShardedSnapshotMerges(t *testing.T) {
	s := NewSharded(4, WithGranularity(time.Millisecond))
	defer s.Close()
	done := make(chan struct{}, 64)
	for i := 0; i < 64; i++ {
		if _, err := s.AfterFunc(5*time.Millisecond, func() { done <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("timers did not fire")
		}
	}
	// A callback signals before the runtime counts its delivery and
	// records its duration: let the last one's counters land.
	snap := s.Snapshot()
	for settle := time.Now().Add(5 * time.Second); snap.Expired < 64 || snap.CallbackNS.Count < 64; snap = s.Snapshot() {
		if time.Now().After(settle) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if snap.Shards != 4 {
		t.Fatalf("Shards=%d, want 4", snap.Shards)
	}
	if snap.Started != 64 || snap.Expired != 64 {
		t.Fatalf("started=%d expired=%d, want 64/64", snap.Started, snap.Expired)
	}
	if snap.FiringLagNS.Count != 64 {
		t.Fatalf("merged FiringLagNS.Count=%d, want 64", snap.FiringLagNS.Count)
	}
	if snap.CallbackNS.Count != 64 {
		t.Fatalf("merged CallbackNS.Count=%d, want 64", snap.CallbackNS.Count)
	}
	// Round-robin spread: each shard's wheel contributes its slot count.
	if snap.Wheel.Slots != 4*4096 {
		t.Fatalf("merged Wheel.Slots=%d, want %d", snap.Wheel.Slots, 4*4096)
	}
	if snap.Health.Delivered != 64 {
		t.Fatalf("merged Health.Delivered=%d, want 64", snap.Health.Delivered)
	}
	// Quantiles on the merged histogram stay within the recorded range.
	if p := snap.FiringLagNS.P99(); p < snap.FiringLagNS.Min || p > snap.FiringLagNS.Max {
		t.Fatalf("merged P99=%d outside [%d,%d]", p, snap.FiringLagNS.Min, snap.FiringLagNS.Max)
	}
}

// TestSnapshotHierarchySlotGauges: a hierarchy reports its finest
// level's slots in the slot gauges, the wheel that fires.
func TestSnapshotHierarchySlotGauges(t *testing.T) {
	rt, _ := newManualRuntime(t,
		WithScheme(NewHierarchicalWheel([]int{8, 8, 8}, MigrateAlways)))
	for _, d := range []time.Duration{30, 30, 50, 200} { // ticks 3, 3, 5 on level 0; 20 on level 1
		if _, err := rt.AfterFunc(d*time.Millisecond, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	w := rt.Snapshot().Wheel
	if w.Slots != 8 || w.OccupiedSlots != 2 || w.MaxSlotDepth != 2 {
		t.Fatalf("Wheel=%+v, want 8 finest slots, 2 occupied, deepest 2", w)
	}
}
