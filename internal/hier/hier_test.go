package hier

import (
	"sort"
	"testing"

	"timingwheels/internal/core"
	"timingwheels/internal/dist"
	"timingwheels/internal/metrics"
)

func noop(core.ID) {}

func TestGeometry(t *testing.T) {
	s := NewScheme7(DayRadices, MigrateAlways, nil)
	if s.Levels() != 4 {
		t.Fatalf("Levels=%d", s.Levels())
	}
	// The paper's headline: 100 + 24 + 60 + 60 = 244 locations instead of
	// 8.64 million.
	if s.Slots() != 244 {
		t.Fatalf("Slots=%d, want 244", s.Slots())
	}
	if s.MaxInterval() != 100*24*60*60-1 {
		t.Fatalf("MaxInterval=%d", s.MaxInterval())
	}
}

func TestIntervalBounds(t *testing.T) {
	s := NewScheme7([]int{4, 4}, MigrateAlways, nil)
	if s.MaxInterval() != 15 {
		t.Fatalf("MaxInterval=%d", s.MaxInterval())
	}
	if _, err := s.StartTimer(15, noop); err != nil {
		t.Fatalf("max interval rejected: %v", err)
	}
	if _, err := s.StartTimer(16, noop); err != core.ErrIntervalOutOfRange {
		t.Fatalf("out of range: err=%v", err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no levels": func() { NewScheme7(nil, MigrateAlways, nil) },
		"radix 1":   func() { NewScheme7([]int{1}, MigrateAlways, nil) },
		"huge span": func() { NewScheme7([]int{1 << 20, 1 << 20, 1 << 20, 1 << 20}, MigrateAlways, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

// TestFig10WorkedExample reproduces the paper's Figures 10-11 in the
// 60x60x24x100 hierarchy: at current time 11 days 10:24:30, a timer of 50
// minutes 45 seconds (3045 s) must fire exactly at 11 days 11:15:15,
// passing through the minute-array slot 15 / second-array slot 15 path of
// Figure 11.
func TestFig10WorkedExample(t *testing.T) {
	s := NewScheme7(DayRadices, MigrateAlways, nil)
	start := core.Tick(((11*24+10)*60+24)*60 + 30) // 11d 10:24:30 in seconds
	for s.Now() < start {
		s.Tick()
	}
	const interval = 50*60 + 45 // 50 min 45 s
	var firedAt core.Tick = -1
	if _, err := s.StartTimer(interval, func(core.ID) { firedAt = s.Now() }); err != nil {
		t.Fatal(err)
	}
	want := start + interval
	for s.Now() < want+10 && firedAt < 0 {
		s.Tick()
	}
	if firedAt != want {
		t.Fatalf("fired at %d, want %d (11d 11:15:15)", firedAt, want)
	}
	// 11d 11:15:15 decomposes as the paper's figure shows.
	if d, h, m, sec := firedAt/86400, firedAt%86400/3600, firedAt%3600/60, firedAt%60; d != 11 || h != 11 || m != 15 || sec != 15 {
		t.Fatalf("decomposition %d d %d:%d:%d", d, h, m, sec)
	}
	// The timer migrated between arrays at most m-1 times.
	if s.Migrations > uint64(s.Levels()-1) {
		t.Fatalf("Migrations=%d, want <= %d", s.Migrations, s.Levels()-1)
	}
}

func TestExactnessAcrossLevels(t *testing.T) {
	s := NewScheme7([]int{8, 8, 8, 8}, MigrateAlways, nil)
	intervals := []core.Tick{1, 7, 8, 9, 63, 64, 65, 511, 512, 513, 4095}
	for _, iv := range intervals {
		fired := make(map[core.Tick]bool)
		want := s.Now() + iv
		if _, err := s.StartTimer(iv, func(core.ID) { fired[s.Now()] = true }); err != nil {
			t.Fatalf("StartTimer(%d): %v", iv, err)
		}
		for i := core.Tick(0); i <= iv+2; i++ {
			s.Tick()
		}
		if !fired[want] || len(fired) != 1 {
			t.Fatalf("interval %d: fired %v, want exactly at %d", iv, fired, want)
		}
	}
}

func TestMigrationsBounded(t *testing.T) {
	s := NewScheme7([]int{8, 8, 8, 8}, MigrateAlways, nil)
	const n = 300
	rng := dist.NewRNG(41)
	fired := 0
	for i := 0; i < n; i++ {
		if _, err := s.StartTimer(core.Tick(1+rng.Intn(4000)), func(core.ID) { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	for s.Len() > 0 {
		s.Tick()
	}
	if fired != n {
		t.Fatalf("fired %d, want %d", fired, n)
	}
	// Each timer migrates at most m-1 = 3 times.
	if s.Migrations > uint64(n*(s.Levels()-1)) {
		t.Fatalf("Migrations=%d exceeds n*(m-1)=%d", s.Migrations, n*(s.Levels()-1))
	}
}

// TestMigrateNeverPrecisionBound: the Wick Nichols variant fires within
// half a slot width of the requested time (up to 50% of the interval)
// and performs zero migrations.
func TestMigrateNeverPrecisionBound(t *testing.T) {
	s := NewScheme7([]int{10, 10, 10}, MigrateNever, nil)
	rng := dist.NewRNG(43)
	type req struct {
		want core.Tick
		gran core.Tick
	}
	reqs := make(map[core.ID]req)
	var maxErr core.Tick
	errorFor := func(id core.ID, firedAt core.Tick) {
		r := reqs[id]
		diff := firedAt - r.want
		if diff < 0 {
			diff = -diff
		}
		if diff > r.gran/2 {
			t.Errorf("timer %d fired at %d, want %d (gran %d): error %d beyond half-slot",
				id, firedAt, r.want, r.gran, diff)
		}
		if diff > maxErr {
			maxErr = diff
		}
	}
	grans := []core.Tick{1, 10, 100}
	spans := []core.Tick{10, 100, 1000}
	for i := 0; i < 300; i++ {
		iv := core.Tick(1 + rng.Intn(900))
		var gran core.Tick = 1
		for lv := range spans {
			if iv < spans[lv] {
				gran = grans[lv]
				break
			}
		}
		h, err := s.StartTimer(iv, func(id core.ID) { errorFor(id, s.Now()) })
		if err != nil {
			t.Fatal(err)
		}
		reqs[h.TimerID()] = req{want: s.Now() + iv, gran: gran}
	}
	for s.Len() > 0 {
		s.Tick()
	}
	if s.Migrations != 0 {
		t.Fatalf("MigrateNever performed %d migrations", s.Migrations)
	}
	if maxErr == 0 {
		t.Fatal("expected some rounding error for coarse timers")
	}
}

// TestMigrateOncePrecisionAndWork: at most one migration per timer, and
// firing error bounded by half the slot width of the level below the
// insertion level.
func TestMigrateOncePrecisionAndWork(t *testing.T) {
	s := NewScheme7([]int{10, 10, 10}, MigrateOnce, nil)
	rng := dist.NewRNG(47)
	const n = 300
	wants := make(map[core.ID]core.Tick)
	var worst core.Tick
	for i := 0; i < n; i++ {
		iv := core.Tick(100 + rng.Intn(800)) // level-2 inserts
		h, err := s.StartTimer(iv, func(id core.ID) {
			diff := s.Now() - wants[id]
			if diff < 0 {
				diff = -diff
			}
			if diff > worst {
				worst = diff
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		wants[h.TimerID()] = s.Now() + iv
	}
	for s.Len() > 0 {
		s.Tick()
	}
	if s.Migrations > n {
		t.Fatalf("Migrations=%d, want <= %d (one per timer)", s.Migrations, n)
	}
	// Level-2 timers migrate once to level 1 (gran 10): error <= 5.
	if worst > 5 {
		t.Fatalf("worst error %d, want <= 5 (half of the next-finer slot)", worst)
	}
}

func TestPolicyNames(t *testing.T) {
	if NewScheme7([]int{4, 4}, MigrateAlways, nil).Name() != "scheme7-always" ||
		NewScheme7([]int{4, 4}, MigrateNever, nil).Name() != "scheme7-never" ||
		NewScheme7([]int{4, 4}, MigrateOnce, nil).Name() != "scheme7-once" {
		t.Fatal("policy names")
	}
}

func TestLevelOccupancy(t *testing.T) {
	s := NewScheme7([]int{8, 8, 8}, MigrateAlways, nil)
	if _, err := s.StartTimer(3, noop); err != nil { // level 0
		t.Fatal(err)
	}
	if _, err := s.StartTimer(20, noop); err != nil { // level 1
		t.Fatal(err)
	}
	if _, err := s.StartTimer(200, noop); err != nil { // level 2
		t.Fatal(err)
	}
	occ := s.LevelOccupancy()
	if occ[0] != 1 || occ[1] != 1 || occ[2] != 1 {
		t.Fatalf("occupancy %v", occ)
	}
}

func TestInvariantsUnderChurn(t *testing.T) {
	s := NewScheme7([]int{8, 8, 8}, MigrateAlways, nil)
	rng := dist.NewRNG(53)
	var handles []core.Handle
	for i := 0; i < 2000; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			h, err := s.StartTimer(core.Tick(1+rng.Intn(500)), noop)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		case 2:
			s.Tick()
		case 3:
			if len(handles) > 0 {
				i := rng.Intn(len(handles))
				_ = s.StopTimer(handles[i])
				handles = append(handles[:i], handles[i+1:]...)
			}
		}
		if !s.CheckInvariants() {
			t.Fatalf("invariants broken at op %d (now=%d)", i, s.Now())
		}
	}
}

// TestPerTickCostSmall: with idle wheels, most ticks cost a small
// constant; cascade ticks do bounded extra work.
func TestPerTickCostSmall(t *testing.T) {
	var cost metrics.Cost
	s := NewScheme7([]int{16, 16, 16}, MigrateAlways, &cost)
	rng := dist.NewRNG(59)
	for i := 0; i < 200; i++ {
		if _, err := s.StartTimer(core.Tick(1+rng.Intn(4000)), noop); err != nil {
			t.Fatal(err)
		}
	}
	var series metrics.Series
	for i := 0; i < 4096; i++ {
		before := cost.Snapshot()
		s.Tick()
		series.Add(float64(cost.Snapshot().Sub(before).Units()))
	}
	if series.Mean() > 20 {
		t.Fatalf("mean per-tick cost %.2f units, want small", series.Mean())
	}
}

func TestMaxIntervalFiresExactly(t *testing.T) {
	// The largest representable interval (one tick short of a full
	// top-level revolution) must fire precisely, exercising the
	// roundFor overflow clamp and the deepest cascade chain.
	s := NewScheme7([]int{4, 4, 4}, MigrateAlways, nil)
	max := s.MaxInterval() // 63
	var firedAt core.Tick = -1
	if _, err := s.StartTimer(max, func(core.ID) { firedAt = s.Now() }); err != nil {
		t.Fatal(err)
	}
	for i := core.Tick(0); i <= max+2; i++ {
		s.Tick()
	}
	if firedAt != max {
		t.Fatalf("max interval fired at %d, want %d", firedAt, max)
	}
	// And again mid-stream, where digits are non-zero.
	var fired2 core.Tick = -1
	want := s.Now() + max
	if _, err := s.StartTimer(max, func(core.ID) { fired2 = s.Now() }); err != nil {
		t.Fatal(err)
	}
	for s.Now() < want+2 {
		s.Tick()
	}
	if fired2 != want {
		t.Fatalf("mid-stream max interval fired at %d, want %d", fired2, want)
	}
}

func TestMaxIntervalAllPolicies(t *testing.T) {
	for _, p := range []Policy{MigrateAlways, MigrateOnce, MigrateNever} {
		s := NewScheme7([]int{4, 4, 4}, p, nil)
		max := s.MaxInterval()
		fired := false
		if _, err := s.StartTimer(max, func(core.ID) { fired = true }); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		// Imprecise policies may fire up to half the coarsest slot early
		// or late; give the full span.
		for i := core.Tick(0); i <= 2*max && !fired; i++ {
			s.Tick()
		}
		if !fired {
			t.Fatalf("%s: max-interval timer never fired", p)
		}
	}
}

// TestAdvanceEquivalence: the per-level bitmap Advance fires the same
// timers at the same times as tick-by-tick stepping, across cascades.
func TestAdvanceEquivalence(t *testing.T) {
	rng := dist.NewRNG(103)
	a := NewScheme7([]int{8, 8, 8}, MigrateAlways, nil)
	b := NewScheme7([]int{8, 8, 8}, MigrateAlways, nil)
	var aFires, bFires []core.Tick
	for round := 0; round < 80; round++ {
		k := rng.Intn(3)
		for i := 0; i < k; i++ {
			iv := core.Tick(1 + rng.Intn(500))
			if _, err := a.StartTimer(iv, func(core.ID) { aFires = append(aFires, a.Now()) }); err != nil {
				t.Fatal(err)
			}
			if _, err := b.StartTimer(iv, func(core.ID) { bFires = append(bFires, b.Now()) }); err != nil {
				t.Fatal(err)
			}
		}
		step := core.Tick(1 + rng.Intn(200))
		na := a.Advance(step)
		nb := 0
		for i := core.Tick(0); i < step; i++ {
			nb += b.Tick()
		}
		if na != nb || a.Now() != b.Now() || a.Len() != b.Len() {
			t.Fatalf("round %d: advance fired=%d now=%d len=%d; ticks fired=%d now=%d len=%d",
				round, na, a.Now(), a.Len(), nb, b.Now(), b.Len())
		}
		if !a.CheckInvariants() {
			t.Fatalf("round %d: invariants broken after Advance", round)
		}
	}
	if len(aFires) == 0 {
		t.Fatal("nothing fired")
	}
	for i := range aFires {
		if aFires[i] != bFires[i] {
			t.Fatalf("fire %d at %d vs %d", i, aFires[i], bFires[i])
		}
	}
}

// TestAdvanceIdleHierarchyIsCheap: fast-forwarding the paper's 100-day
// hierarchy across a day of virtual seconds with one timer pending costs
// per-event work, not per-tick work.
func TestAdvanceIdleHierarchyIsCheap(t *testing.T) {
	var cost metrics.Cost
	s := NewScheme7(DayRadices, MigrateAlways, &cost)
	var firedAt core.Tick = -1
	if _, err := s.StartTimer(86_400, func(core.ID) { firedAt = s.Now() }); err != nil {
		t.Fatal(err)
	}
	cost.Reset()
	if n := s.Advance(90_000); n != 1 {
		t.Fatalf("fired %d", n)
	}
	if firedAt != 86_400 {
		t.Fatalf("fired at %d", firedAt)
	}
	// The timer migrates a couple of times; each jump probes m bitmaps.
	if u := cost.Snapshot().Units(); u > 200 {
		t.Fatalf("Advance over a day cost %d units; expected per-event work", u)
	}
}

// TestOccupancyIsFinestLevel: Occupancy reports the finest wheel's
// per-slot counts, the slots that fire.
func TestOccupancyIsFinestLevel(t *testing.T) {
	s := NewScheme7([]int{8, 8}, MigrateAlways, nil)
	for _, iv := range []core.Tick{3, 3, 5, 20} {
		if _, err := s.StartTimer(iv, noop); err != nil {
			t.Fatal(err)
		}
	}
	occ := s.Occupancy()
	want := []int{0, 0, 0, 2, 0, 1, 0, 0}
	if len(occ) != len(want) {
		t.Fatalf("Occupancy has %d slots, want the finest level's 8", len(occ))
	}
	for i := range want {
		if occ[i] != want[i] {
			t.Fatalf("Occupancy=%v, want %v (the 20-tick timer waits on level 1)", occ, want)
		}
	}
}

// TestNextExpiryTicklessEquivalence is the property a tickless host
// relies on. NextExpiry is never after the earliest outstanding
// expiry, and a host that sleeps from event to event — arming timers at
// wall times in between, against the scheme's stale Now with the
// interval stretched by the lag, as the runtime does — fires the same
// timers at the same ticks as a reference stepped tick by tick and armed
// at the exact wall tick.
func TestNextExpiryTicklessEquivalence(t *testing.T) {
	for _, radices := range [][]int{{4, 4, 4}, {8, 4, 2, 16}, {16, 8, 8}} {
		for seed := uint64(1); seed <= 20; seed++ {
			checkTicklessEquivalence(t, radices, seed)
		}
	}
}

func checkTicklessEquivalence(t *testing.T, radices []int, seed uint64) {
	t.Helper()
	rng := dist.NewRNG(seed)
	host := NewScheme7(radices, MigrateAlways, nil)
	ref := NewScheme7(radices, MigrateAlways, nil)
	span := int(host.MaxInterval())
	// park is the tick the host sleeps until: the next event, but never
	// more than idle ticks ahead (the runtime's maxIdle), so the host's
	// lag behind the wall stays below idle.
	idle := core.Tick(span / 4)
	park := func() core.Tick {
		wake := host.Now() + idle
		if next, ok := host.NextExpiry(); ok && next < wake {
			wake = next
		}
		return wake
	}
	type fire struct {
		id int
		at core.Tick
	}
	var hostFires, refFires []fire
	deadlines := map[int]core.Tick{} // outstanding timer -> expiry tick
	wall := core.Tick(0)
	wake := park()
	for step := 0; step < 400; step++ {
		// Wall time moves on without the host noticing until it passes
		// the wake tick; then the host advances to it and parks again.
		// An arm later than wake may have added an earlier cascade:
		// Advance runs it on the way, as the runtime's Poll does.
		wall += core.Tick(1 + rng.Intn(span/3+1))
		for wake <= wall {
			host.Advance(wake - host.Now())
			wake = park()
			checkLowerBound(t, host, deadlines, wake)
		}
		for ref.Now() < wall {
			ref.Tick()
		}
		for k := rng.Intn(4); k > 0; k-- {
			id := len(deadlines) + len(hostFires) + 1
			// The stretched interval stays inside the hierarchy.
			lag := wall - host.Now()
			iv := core.Tick(1 + rng.Intn(span-int(lag)))
			deadlines[id] = wall + iv
			if _, err := host.StartTimer(lag+iv, func(core.ID) {
				hostFires = append(hostFires, fire{id, host.Now()})
				delete(deadlines, id)
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.StartTimer(iv, func(core.ID) { refFires = append(refFires, fire{id, ref.Now()}) }); err != nil {
				t.Fatal(err)
			}
			if wall+iv < wake {
				wake = park() // the poke
			}
			checkLowerBound(t, host, deadlines, wake)
		}
	}
	for host.Len() > 0 {
		host.Advance(wake - host.Now())
		wake = park()
		checkLowerBound(t, host, deadlines, wake)
	}
	for ref.Len() > 0 {
		ref.Tick()
	}
	if len(hostFires) != len(refFires) || len(hostFires) == 0 {
		t.Fatalf("radices %v seed %d: host fired %d, reference %d", radices, seed, len(hostFires), len(refFires))
	}
	// Order within one tick is not part of the contract.
	for _, fs := range [][]fire{hostFires, refFires} {
		sort.Slice(fs, func(i, j int) bool { return fs[i].at < fs[j].at || fs[i].at == fs[j].at && fs[i].id < fs[j].id })
	}
	for i := range refFires {
		if hostFires[i] != refFires[i] {
			t.Fatalf("radices %v seed %d: fire %d host %+v, reference %+v", radices, seed, i, hostFires[i], refFires[i])
		}
	}
	if !host.CheckInvariants() {
		t.Fatal("host invariants broken")
	}
}

// checkLowerBound asserts that neither NextExpiry nor the tick the host
// is parked until is later than any outstanding expiry.
func checkLowerBound(t *testing.T, s *Scheme7, deadlines map[int]core.Tick, wake core.Tick) {
	t.Helper()
	next, ok := s.NextExpiry()
	if ok != (len(deadlines) > 0) {
		t.Fatalf("NextExpiry ok=%v with %d outstanding", ok, len(deadlines))
	}
	for id, d := range deadlines {
		if next > d || wake > d {
			t.Fatalf("NextExpiry %d / wake %d after timer %d's expiry %d (now %d)", next, wake, id, d, s.Now())
		}
	}
}
