package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The scraper reads twd from outside, over the same endpoints an
// operator has: /metrics (Prometheus text), /healthz and /debug/vars.
// It imports nothing from cmd/twd.

// promHist is one Prometheus histogram: cumulative counts by upper bound.
type promHist struct {
	le    []float64 // ascending; +Inf last
	cum   []float64
	sum   float64
	count float64
}

// promScrape is one /metrics response.
type promScrape struct {
	scalar map[string]float64
	hist   map[string]*promHist
}

// metricPrefix is the namespace twd exports under.
const metricPrefix = "timingwheels_"

func parseProm(r io.Reader) (*promScrape, error) {
	s := &promScrape{scalar: map[string]float64{}, hist: map[string]*promHist{}}
	types := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if f := strings.Fields(rest); len(f) == 2 {
				types[strings.TrimPrefix(f[0], metricPrefix)] = f[1]
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		name := strings.TrimPrefix(line[:sp], metricPrefix)
		base, label := name, ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base, label = name[:i], name[i:]
		}
		switch {
		case strings.HasSuffix(base, "_bucket") && types[strings.TrimSuffix(base, "_bucket")] == "histogram":
			h := s.histFor(strings.TrimSuffix(base, "_bucket"))
			le := strings.TrimSuffix(strings.TrimPrefix(label, `{le="`), `"}`)
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					return nil, fmt.Errorf("metrics: bad bucket bound in %q", line)
				}
			}
			h.le = append(h.le, bound)
			h.cum = append(h.cum, v)
		case strings.HasSuffix(base, "_sum") && types[strings.TrimSuffix(base, "_sum")] == "histogram":
			s.histFor(strings.TrimSuffix(base, "_sum")).sum = v
		case strings.HasSuffix(base, "_count") && types[strings.TrimSuffix(base, "_count")] == "histogram":
			s.histFor(strings.TrimSuffix(base, "_count")).count = v
		default:
			s.scalar[name] = v
		}
	}
	return s, sc.Err()
}

func (s *promScrape) histFor(name string) *promHist {
	h := s.hist[name]
	if h == nil {
		h = &promHist{}
		s.hist[name] = h
	}
	return h
}

// cumAt is the cumulative count at bound: buckets are only exported once
// they hold a sample, so an absent bound inherits the next lower one.
func (h *promHist) cumAt(bound float64) float64 {
	if h == nil {
		return 0
	}
	i := sort.SearchFloat64s(h.le, bound)
	if i < len(h.le) && h.le[i] == bound {
		return h.cum[i]
	}
	if i == 0 {
		return 0
	}
	return h.cum[i-1]
}

// delta returns the histogram of samples recorded between two scrapes.
func histDelta(before, after *promHist) *promHist {
	if after == nil {
		return &promHist{}
	}
	d := &promHist{sum: after.sum, count: after.count}
	if before != nil {
		d.sum -= before.sum
		d.count -= before.count
	}
	for i, le := range after.le {
		d.le = append(d.le, le)
		d.cum = append(d.cum, after.cum[i]-before.cumAt(le))
	}
	return d
}

// quantile returns the upper bound of the bucket holding quantile q, or
// 0 for an empty histogram.
func (h *promHist) quantile(q float64) float64 {
	if h.count <= 0 {
		return 0
	}
	rank := math.Ceil(q * h.count)
	for i, c := range h.cum {
		if c >= rank {
			if math.IsInf(h.le[i], 1) && i > 0 {
				return h.le[i-1]
			}
			return h.le[i]
		}
	}
	return 0
}

// mean is sum/count, or 0 for an empty histogram.
func (h *promHist) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// health is the part of /healthz the oracle and the layer table read.
type health struct {
	Outstanding uint64 `json:"outstanding"`
	Scheduled   uint64 `json:"scheduled_total"`
	Fired       uint64 `json:"fired_total"`
	Cancelled   uint64 `json:"cancelled_total"`
	WAL         struct {
		Snapshots    uint64 `json:"snapshots"`
		SegmentBytes int64  `json:"segment_bytes"`
	} `json:"wal"`
}

// memStats is the part of runtime.MemStats /debug/vars carries that the
// layer table reads.
type memStats struct {
	HeapAlloc     uint64  `json:"HeapAlloc"`
	NumGC         uint32  `json:"NumGC"`
	GCCPUFraction float64 `json:"GCCPUFraction"`
}

// scrape is one outside-in reading of the daemon.
type scrape struct {
	at     time.Time
	cpu    time.Duration
	prom   *promScrape
	health health
	mem    memStats
}

// scraper holds the connection the scrapes use, apart from the two that
// carry load.
type scraper struct {
	hc    *http.Client
	pid   int
	base  string
	debug string
}

func (sc *scraper) get(url string, into func(io.Reader) error) error {
	resp, err := sc.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if into == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return into(resp.Body)
}

// health reads /healthz.
func (sc *scraper) health() (health, error) {
	var h health
	err := sc.get(sc.base+"/healthz", func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&h)
	})
	return h, err
}

// take reads CPU first (so the scrape's own cost lands outside the
// window), then /metrics, /healthz and, after a forced GC when gc is
// set, the live heap from /debug/vars.
func (sc *scraper) take(gc bool) (*scrape, error) {
	s := &scrape{at: time.Now()}
	var err error
	if s.cpu, err = procCPU(sc.pid); err != nil {
		return nil, err
	}
	if err := sc.get(sc.base+"/metrics", func(r io.Reader) error {
		var perr error
		s.prom, perr = parseProm(r)
		return perr
	}); err != nil {
		return nil, err
	}
	if s.health, err = sc.health(); err != nil {
		return nil, err
	}
	if gc {
		if err := sc.get(sc.debug+"/debug/pprof/heap?gc=1", nil); err != nil {
			return nil, err
		}
	}
	if err := sc.get(sc.debug+"/debug/vars", func(r io.Reader) error {
		var v struct {
			Mem memStats `json:"memstats"`
		}
		if err := json.NewDecoder(r).Decode(&v); err != nil {
			return err
		}
		s.mem = v.Mem
		return nil
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// window is the difference between two scrapes.
type window struct{ a, b *scrape }

func (w window) seconds() float64 { return w.b.at.Sub(w.a.at).Seconds() }

func (w window) counter(name string) float64 { return w.b.prom.scalar[name] - w.a.prom.scalar[name] }

func (w window) gauge(name string) float64 { return w.b.prom.scalar[name] }

func (w window) hist(name string) *promHist {
	return histDelta(w.a.prom.hist[name], w.b.prom.hist[name])
}
