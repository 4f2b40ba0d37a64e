// Command twd is a durable timer daemon over the timingwheels runtime:
// clients schedule, reset, and cancel timers over HTTP/JSON; every
// acked transition is written ahead to a CRC-framed log before the
// facility arms it, so a crash — SIGKILL included — loses nothing that
// was acknowledged. On boot the daemon replays the snapshot and log,
// re-arms every outstanding timer at its recorded wall-clock deadline
// (deadlines that passed during downtime fire immediately, with the
// true lag), and restores client leases; a client that stops
// heartbeating has its timers garbage-collected and logged.
//
//	twd -addr :7474 -dir /var/lib/twd
//
// A second twd can follow the first as a warm standby, replaying the
// primary's WAL stream into its own log:
//
//	twd -addr :7475 -dir /var/lib/twd-b -follow http://127.0.0.1:7474
//
// POST /v1/promote (or SIGUSR1) turns the standby into the primary: it
// drains the replication cursor, re-arms the outstanding timers at
// their absolute deadlines, bumps the fencing term, and starts
// accepting writes. A deposed primary that restarts with
// -peers http://127.0.0.1:7475 discovers the higher term and boots
// fenced — refusing writes and arming nothing, so no timer ever fires
// twice.
//
// See the repository README for the endpoint reference and worked curl
// sessions.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"timingwheels/timer/telemetry"
)

// serverWriteTimeout bounds any single response, and therefore every
// long poll: maxFiredWait and maxStreamWait must stay below it.
const serverWriteTimeout = 45 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, factored for tests: the e2e harness execs the test
// binary back into this function and SIGKILLs it mid-traffic.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("twd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:7474", "listen address")
		dir          = fs.String("dir", "twd-data", "WAL directory")
		shards       = fs.Int("shards", 1, "timer facility shards")
		granularity  = fs.Duration("granularity", defaultGranularity, "tick granularity: timers fire within one tick of their deadline; the driver sleeps between events, so a finer tick costs no extra wakeups")
		syncEvery    = fs.Int("sync-every", 64, "fsync after this many unsynced records (0 disables)")
		syncInterval = fs.Duration("sync-interval", 5*time.Millisecond, "fsync a record nobody commits within this long of its append (0 disables)")
		snapBytes    = fs.Int64("snapshot-bytes", 8<<20, "segment size that triggers compaction (0 disables)")
		defaultTTL   = fs.Duration("lease-ttl", 30*time.Second, "default lease TTL")
		drainWait    = fs.Duration("drain-timeout", 5*time.Second, "graceful shutdown budget")
		follow       = fs.String("follow", "", "run as a warm standby of this primary base URL")
		peers        = fs.String("peers", "", "comma-separated peer base URLs to probe for a higher term at boot")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof and expvar on this address (empty disables)")
		traceSlow    = fs.Duration("trace-slow", 25*time.Millisecond, "admissions at or above this end-to-end latency are kept as slow exemplars and logged")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// A node that was ever a primary must assume it was deposed while it
	// was down: if any peer serves a higher term, boot fenced — recover
	// the state for inspection, arm nothing, refuse writes.
	startFenced := false
	if *peers != "" && *follow == "" {
		own := loadTerm(*dir)
		if highest := probePeerTerms(strings.Split(*peers, ","), 2*time.Second); highest > own {
			fmt.Fprintf(stdout, "twd boot fenced: peer term %d > own term %d\n", highest, own)
			startFenced = true
		}
	}

	srv, err := newServer(config{
		dir:          *dir,
		shards:       *shards,
		granularity:  *granularity,
		syncEvery:    *syncEvery,
		syncInterval: *syncInterval,
		snapBytes:    *snapBytes,
		defaultTTL:   *defaultTTL,
		follow:       *follow,
		startFenced:  startFenced,
		traceSlow:    *traceSlow,
		logger:       slog.New(slog.NewTextHandler(stderr, nil)),
	})
	if err != nil {
		fmt.Fprintf(stderr, "twd: %v\n", err)
		return 1
	}
	rec := srv.recovered
	fmt.Fprintf(stdout, "twd recovered epoch=%d snapshot=%d log=%d outstanding=%d leases=%d torn=%v sealed=%v\n",
		rec.Epoch, rec.SnapshotRecords, rec.LogRecords,
		rec.Outstanding, rec.Leases, rec.Torn, rec.Sealed)
	fmt.Fprintf(stdout, "twd role=%s term=%d\n", srv.currentRole(), srv.currentTerm())
	if *follow != "" {
		fmt.Fprintf(stdout, "twd following %s\n", *follow)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "twd: listen: %v\n", err)
		return 1
	}
	// The parseable line the e2e harness (and an operator's tooling)
	// waits for before sending traffic.
	fmt.Fprintf(stdout, "twd listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.routes(), WriteTimeout: serverWriteTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	var ds *http.Server
	if *debugAddr != "" {
		dln, derr := net.Listen("tcp", *debugAddr)
		if derr != nil {
			fmt.Fprintf(stderr, "twd: debug listen: %v\n", derr)
			return 1
		}
		fmt.Fprintf(stdout, "twd debug listening on %s\n", dln.Addr())
		ds = &http.Server{Handler: debugMux(srv)}
		go ds.Serve(dln)
	}

	sig := make(chan os.Signal, 4)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt, syscall.SIGUSR1)
	for {
		select {
		case got := <-sig:
			if got == syscall.SIGUSR1 {
				// Operator-driven promotion, equivalent to POST /v1/promote.
				if _, perr := srv.promote(context.Background()); perr != nil {
					fmt.Fprintf(stderr, "twd: promote: %v\n", perr)
				}
				continue
			}
			fmt.Fprintf(stdout, "twd shutting down on %v\n", got)
		case err := <-serveErr:
			fmt.Fprintf(stderr, "twd: serve: %v\n", err)
			return 1
		}
		break
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	hs.Shutdown(ctx)
	if ds != nil {
		ds.Shutdown(ctx)
	}
	srv.shutdown(ctx)
	fmt.Fprintln(stdout, "twd sealed and stopped")
	return 0
}

// expvarOnce guards the expvar registrations: expvar.Publish panics on
// duplicate names, and the e2e harness execs run() more than once per
// process. The published facility pointer is therefore the first
// server's — fine for the production one-server-per-process case the
// debug endpoint exists for.
var expvarOnce sync.Once

// debugMux serves the operator-only introspection surface: pprof
// profiles, expvar (including the facility snapshot under "twd"), and
// the same /metrics and /v1/trace the main listener serves — useful
// when the main port is firewalled to clients only.
func debugMux(srv *server) http.Handler {
	expvarOnce.Do(func() {
		telemetry.Publish("twd", srv.fac)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", telemetry.HandlerWith(srv.fac, srv.extraMetrics()...))
	mux.HandleFunc("/v1/trace", srv.handleTrace)
	return mux
}
