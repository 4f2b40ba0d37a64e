package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"timingwheels/internal/wal"
	"timingwheels/timer"
)

// residentDeadlines draws the resident population's deadlines, as
// offsets from the moment it is written: one to two hours out, so no
// resident timer fires during a run unless a workload resets it.
func residentDeadlines(rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Hour + time.Duration(rng.Int63n(int64(time.Hour)))
	}
	return out
}

// seedWAL writes the resident population into dir as a compaction
// snapshot, exactly what twd itself writes when it compacts: a
// high-water pin plus one schedule record per timer, with IDs 1..n. The
// active segment is left empty, so no compaction fires at boot.
func seedWAL(dir string, deadlines []time.Duration, base time.Time) error {
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return fmt.Errorf("seed wal: %w", err)
	}
	n := len(deadlines)
	recs := make([]wal.Record, 0, n+1)
	recs = append(recs, wal.Record{Op: wal.OpHighWater, ID: uint64(n)})
	for i, off := range deadlines {
		recs = append(recs, wal.Record{
			Op: wal.OpSchedule, Class: uint8(timer.PriorityNormal), ID: uint64(i + 1),
			Deadline: base.Add(off).UnixNano(),
		})
	}
	if err := log.Snapshot(recs); err != nil {
		log.Close()
		return fmt.Errorf("seed wal snapshot: %w", err)
	}
	return log.Close()
}

// daemon is one running twd subprocess.
type daemon struct {
	cmd       *exec.Cmd
	base      string // http://host:port of the client listener
	debug     string // http://host:port of the -debug-addr listener
	setup     time.Duration
	stderrLog *os.File
	killed    bool
}

// bannerWriter receives twd's stdout and timestamps the two banner lines
// the benchmark waits for.
type bannerWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	lines   []string
	changed chan struct{}
}

func (w *bannerWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.Reset()
			w.buf.WriteString(line)
			break
		}
		w.lines = append(w.lines, strings.TrimSpace(line))
		close(w.changed)
		w.changed = make(chan struct{})
	}
	return len(p), nil
}

// await blocks until a line with prefix appears and returns its rest and
// the instant the line was seen.
func (w *bannerWriter) await(prefix string, timeout time.Duration) (string, time.Time, error) {
	deadline := time.After(timeout)
	for {
		w.mu.Lock()
		for _, l := range w.lines {
			if rest, ok := strings.CutPrefix(l, prefix); ok {
				w.mu.Unlock()
				return rest, time.Now(), nil
			}
		}
		ch := w.changed
		w.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			return "", time.Time{}, fmt.Errorf("twd printed no %q within %v", prefix, timeout)
		}
	}
}

// startDaemon spawns twd on dir with its default flags (the two listen
// addresses aside) and times spawn → "twd listening on".
func startDaemon(bin, dir, logPath string) (*daemon, error) {
	errLog, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	bw := &bannerWriter{changed: make(chan struct{})}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-dir", dir)
	cmd.Stdout = bw
	cmd.Stderr = errLog
	// twd must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, stderrLog: errLog}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		errLog.Close()
		return nil, fmt.Errorf("start twd: %w", err)
	}
	addr, at, err := bw.await("twd listening on ", 120*time.Second)
	if err != nil {
		d.kill()
		return nil, err
	}
	d.setup = at.Sub(start)
	debug, _, err := bw.await("twd debug listening on ", 10*time.Second)
	if err != nil {
		d.kill()
		return nil, err
	}
	d.base, d.debug = "http://"+addr, "http://"+debug
	return d, nil
}

// kill SIGKILLs twd and waits for it to exit; later calls do nothing.
func (d *daemon) kill() {
	if d.killed {
		return
	}
	d.killed = true
	_ = d.cmd.Process.Kill() // already exited is fine
	_ = d.cmd.Wait()         // the exit status of a killed process says nothing
	d.stderrLog.Close()
}

// bootTimes boots twd on dir warm+timed times, killing every daemon but
// the last, and returns the last daemon and the timed boots' setup
// times. The untimed warm-up boots pull the WAL into the page cache,
// so every timed boot starts from the same state.
func bootTimes(bin, dir, logPath string, warm, timed int) (*daemon, []float64, error) {
	var times []float64
	for i := 0; i < warm+timed; i++ {
		d, err := startDaemon(bin, dir, logPath)
		if err != nil {
			return nil, nil, err
		}
		if i >= warm {
			times = append(times, d.setup.Seconds())
		}
		if i == warm+timed-1 {
			return d, times, nil
		}
		d.kill()
	}
	return nil, nil, fmt.Errorf("no boots requested")
}

// procCPU reports a process's CPU time, user and system, summed over
// its threads from /proc/<pid>/task/*/schedstat, whose first field is
// nanoseconds on a CPU. /proc/<pid>/stat counts in 10 ms ticks, too
// coarse for one second of a lightly loaded daemon.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(filepath.Join("/proc", strconv.Itoa(pid), "task", "*", "schedstat"))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no threads for pid %d", pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited since the glob
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad %s: %q", t, b)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// selfCPU reports this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tailLog returns the last lines of a daemon log, for error reports.
func tailLog(path string, n int) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) > n {
			lines = lines[1:]
		}
	}
	return strings.Join(lines, "\n")
}
