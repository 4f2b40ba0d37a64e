package stagetrace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source for deterministic spans.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestRecorder(clk *fakeClock, cfg Config) *Recorder {
	if clk != nil {
		cfg.Now = clk.now
	}
	return NewRecorder(cfg)
}

func TestSpanStageSumEqualsTotal(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := newTestRecorder(clk, Config{Recent: 8, Slow: 4})

	sp := r.Begin("admit", "trace-1", 0, 3)
	clk.advance(10 * time.Microsecond)
	sp.Mark("decode")
	clk.advance(200 * time.Microsecond)
	sp.Mark("append")
	clk.advance(1500 * time.Microsecond)
	sp.Mark("commit")
	clk.advance(30 * time.Microsecond)
	sp.Mark("arm")
	seq := sp.Finish()
	if seq == 0 {
		t.Fatal("Finish returned seq 0 for a live span")
	}

	tls := r.snapshot()
	if len(tls) == 0 {
		t.Fatal("no timelines recorded")
	}
	tl := tls[0]
	if tl.Seq != seq {
		t.Fatalf("Seq = %d, want %d", tl.Seq, seq)
	}
	if tl.NStages != 4 {
		t.Fatalf("NStages = %d, want 4", tl.NStages)
	}
	var sum int64
	for i := 0; i < tl.NStages; i++ {
		sum += tl.Stages[i].NS
	}
	if sum != tl.TotalNS {
		t.Fatalf("stage sum %d != TotalNS %d", sum, tl.TotalNS)
	}
	if want := int64(1740 * time.Microsecond); tl.TotalNS != want {
		t.Fatalf("TotalNS = %d, want %d", tl.TotalNS, want)
	}
	if tl.StartNS != time.Unix(1000, 0).UnixNano() {
		t.Fatalf("StartNS = %d, want %d", tl.StartNS, time.Unix(1000, 0).UnixNano())
	}
	if got := tl.Stages[2]; got.Name != "commit" || got.NS != int64(1500*time.Microsecond) {
		t.Fatalf("stage 2 = %+v, want commit/1.5ms", got)
	}
}

func TestZeroSpanIsInert(t *testing.T) {
	var sp Span
	sp.Mark("decode") // must not panic
	if seq := sp.Finish(); seq != 0 {
		t.Fatalf("zero span Finish = %d, want 0", seq)
	}
}

func TestRecordFeedsHistograms(t *testing.T) {
	r := NewRecorder(Config{Recent: 4, Slow: 4})
	var tl Timeline
	tl.Kind = "fire"
	tl.Add("fire", 1000)
	tl.Add("enqueue", 500)
	r.Record(tl)

	if got := r.Hist("fire_fire").Snapshot(); got.Count != 1 || got.Sum != 1000 {
		t.Fatalf("fire_fire snapshot = count %d sum %d, want 1/1000", got.Count, got.Sum)
	}
	if got := r.Hist("fire_enqueue").Snapshot(); got.Count != 1 || got.Sum != 500 {
		t.Fatalf("fire_enqueue snapshot = count %d sum %d, want 1/500", got.Count, got.Sum)
	}
	if got := r.Hist("fire_total").Snapshot(); got.Count != 1 || got.Sum != 1500 {
		t.Fatalf("fire_total snapshot = count %d sum %d, want 1/1500", got.Count, got.Sum)
	}
}

func TestHistPointerStable(t *testing.T) {
	r := NewRecorder(Config{Recent: 1, Slow: 1})
	h1 := r.Hist("admit_total")
	h2 := r.Hist("admit_total")
	if h1 != h2 {
		t.Fatal("Hist returned different pointers for the same key")
	}
}

func TestSlowRingThreshold(t *testing.T) {
	r := NewRecorder(Config{Recent: 2, Slow: 8, SlowThreshold: time.Millisecond})

	var fast Timeline
	fast.Kind = "admit"
	fast.Add("decode", int64(10*time.Microsecond))
	r.Record(fast)

	var slow Timeline
	slow.Kind = "admit"
	slow.Trace = "slow-1"
	slow.Add("commit", int64(5*time.Millisecond))
	slowSeq := r.Record(slow)

	// Overwrite the recent ring (capacity 2) with fast timelines; the
	// slow exemplar must survive in its own ring.
	for i := 0; i < 4; i++ {
		var f Timeline
		f.Kind = "admit"
		f.Add("decode", 1)
		r.Record(f)
	}

	var foundSlow bool
	for _, tl := range r.snapshot() {
		if tl.Seq == slowSeq {
			foundSlow = true
			if tl.Trace != "slow-1" {
				t.Fatalf("slow exemplar trace = %q, want slow-1", tl.Trace)
			}
		}
	}
	if !foundSlow {
		t.Fatal("slow exemplar evicted despite dedicated ring")
	}
}

func TestAmendAppendsLateStage(t *testing.T) {
	r := NewRecorder(Config{Recent: 8, Slow: 8, SlowThreshold: time.Hour})
	var tl Timeline
	tl.Kind = "fire"
	tl.ID = 42
	tl.Add("fire", 1000)
	tl.Add("enqueue", 200)
	seq := r.Record(tl)

	if !r.Amend(seq, "push", 3000) {
		t.Fatal("Amend did not find resident exemplar")
	}
	var got *Timeline
	for _, cand := range r.snapshot() {
		if cand.Seq == seq {
			c := cand
			got = &c
			break
		}
	}
	if got == nil {
		t.Fatal("amended timeline missing from snapshot")
	}
	if got.NStages != 3 || got.Stages[2].Name != "push" || got.Stages[2].NS != 3000 {
		t.Fatalf("amended stages = %+v (n=%d), want push/3000 appended", got.Stages, got.NStages)
	}
	if got.TotalNS != 4200 {
		t.Fatalf("amended TotalNS = %d, want 4200", got.TotalNS)
	}
	if h := r.Hist("fire_push").Snapshot(); h.Count != 1 || h.Sum != 3000 {
		t.Fatalf("fire_push snapshot = count %d sum %d, want 1/3000", h.Count, h.Sum)
	}

	// Evicted seq: histogram still counts, exemplar not found.
	if r.Amend(seq+1000, "push", 10) {
		t.Fatal("Amend claimed to find a never-recorded seq")
	}
	if h := r.Hist("fire_push").Snapshot(); h.Count != 2 {
		t.Fatalf("fire_push count after evicted amend = %d, want 2", h.Count)
	}
}

// TestAmendSlowRingWrapped amends exemplars once the slow ring has
// wrapped and the recent ring no longer holds them: a resident slow
// exemplar is found and amended in place, an evicted one is not, and
// neither is a fast timeline that never entered the slow ring.
func TestAmendSlowRingWrapped(t *testing.T) {
	r := NewRecorder(Config{Recent: 2, Slow: 4, SlowThreshold: 100})
	var slowSeqs, fastSeqs []uint64
	for i := 0; i < 20; i++ {
		var tl Timeline
		tl.Kind = "fire"
		if i%3 == 0 {
			tl.Add("fire", 10) // under threshold: recent ring only
			fastSeqs = append(fastSeqs, r.Record(tl))
			continue
		}
		tl.Add("fire", 500)
		slowSeqs = append(slowSeqs, r.Record(tl))
	}
	// 13 slow timelines through a 4-slot ring; the recent ring holds
	// only the last two records, so the first of the last four slow
	// ones lives in the slow ring alone.
	resident := slowSeqs[len(slowSeqs)-4]
	if !r.Amend(resident, "push", 7) {
		t.Fatalf("Amend(%d) missed an exemplar resident in the wrapped slow ring", resident)
	}
	var amended bool
	for _, tl := range r.snapshot() {
		if tl.Seq == resident && tl.NStages == 2 && tl.Stages[1].Name == "push" && tl.TotalNS == 507 {
			amended = true
		}
	}
	if !amended {
		t.Fatalf("slow exemplar %d not amended in place", resident)
	}
	if evicted := slowSeqs[len(slowSeqs)-5]; r.Amend(evicted, "push", 7) {
		t.Fatalf("Amend(%d) found an exemplar the slow ring evicted", evicted)
	}
	if fast := fastSeqs[2]; r.Amend(fast, "push", 7) {
		t.Fatalf("Amend(%d) found a fast timeline the recent ring evicted", fast)
	}
}

func TestAddClampsAndOverflows(t *testing.T) {
	var tl Timeline
	tl.Kind = "fire"
	tl.Add("fire", -50) // clock skew: clamp, don't corrupt the sum
	if tl.Stages[0].NS != 0 || tl.TotalNS != 0 {
		t.Fatalf("negative duration not clamped: %+v", tl)
	}
	for i := 0; i < MaxStages+3; i++ {
		tl.Add(fmt.Sprintf("s%d", i), 10)
	}
	if tl.NStages != MaxStages {
		t.Fatalf("NStages = %d, want %d", tl.NStages, MaxStages)
	}
	var sum int64
	for i := 0; i < tl.NStages; i++ {
		sum += tl.Stages[i].NS
	}
	if sum != tl.TotalNS {
		t.Fatalf("overflowed timeline sum %d != total %d", sum, tl.TotalNS)
	}
}

func TestDumpParsesBackAndRoundTrips(t *testing.T) {
	r := NewRecorder(Config{Recent: 8, Slow: 2, SlowThreshold: time.Hour})
	for i := 0; i < 3; i++ {
		var tl Timeline
		tl.Kind = "admit"
		tl.Trace = fmt.Sprintf("t-%d", i)
		tl.Count = i + 1
		tl.StartNS = int64(1e9 + i)
		tl.Add("decode", int64(i*100))
		tl.Add("commit", int64(i*1000))
		r.Record(tl)
	}

	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	var lastSeq uint64
	for sc.Scan() {
		line := sc.Bytes()
		// Every line must be strict JSON with only known fields.
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var j struct {
			Seq     uint64 `json:"seq"`
			Trace   string `json:"trace"`
			Kind    string `json:"kind"`
			ID      uint64 `json:"id"`
			Count   int    `json:"count"`
			StartNS int64  `json:"start_unix_ns"`
			TotalNS int64  `json:"total_ns"`
			Stages  []struct {
				Stage string `json:"stage"`
				NS    int64  `json:"ns"`
			} `json:"stages"`
		}
		if err := dec.Decode(&j); err != nil {
			t.Fatalf("line %d not strict JSON: %v\n%s", n, err, line)
		}
		if j.Seq <= lastSeq {
			t.Fatalf("dump not oldest-first: seq %d after %d", j.Seq, lastSeq)
		}
		lastSeq = j.Seq

		tl, err := Parse(line)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		back := tl.AppendJSON(nil)
		if !bytes.Equal(back, line) {
			t.Fatalf("round trip mismatch:\n in: %s\nout: %s", line, back)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("dumped %d lines, want 3", n)
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := NewRecorder(Config{Recent: 16, Slow: 16})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 250; i++ {
				var tl Timeline
				tl.Kind = "admit"
				tl.Add("decode", int64(i))
				seq := r.Record(tl)
				r.Amend(seq, "push", 1)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := r.Hist("admit_total").Snapshot().Count; got != 1000 {
		t.Fatalf("admit_total count = %d, want 1000", got)
	}
}
