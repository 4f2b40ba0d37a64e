// Idletimeout is the production-shaped demo: a real TCP echo server
// whose per-connection idle timeouts live on one shared timing wheel —
// the deployment the paper argues for ("a server with 200 connections
// and 3 timers per connection") instead of one goroutine-plus-
// time.Timer per connection.
//
// The program starts the server on a loopback port, connects a fleet of
// clients, keeps some of them chatty, lets the rest go quiet, and shows
// that exactly the quiet ones are reaped by their wheel timers.
package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"timingwheels/timer"
)

const (
	clients     = 24
	chattyEvery = 20 * time.Millisecond
	idleAfter   = 80 * time.Millisecond
	talkFor     = 400 * time.Millisecond
)

// server is a TCP echo server with wheel-managed idle timeouts.
type server struct {
	rt       *timer.Runtime
	ln       net.Listener
	reaped   atomic.Int64
	accepted atomic.Int64
}

func newServer(rt *timer.Runtime) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{rt: rt, ln: ln}
	go s.acceptLoop()
	return s, nil
}

func (s *server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.accepted.Add(1)
		go s.serve(conn)
	}
}

// serve echoes lines; the idle watchdog closes the connection if no
// line arrives for idleAfter. Every received line Resets the timer —
// the O(1) in-place relink that makes a shared wheel scale.
func (s *server) serve(conn net.Conn) {
	defer conn.Close()
	idle, err := s.rt.AfterFunc(idleAfter, func() {
		s.reaped.Add(1)
		conn.Close() // unblocks the read loop below
	})
	if err != nil {
		return
	}
	defer idle.Stop()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		if _, err := idle.Reset(idleAfter); err != nil {
			return
		}
		if _, err := fmt.Fprintf(conn, "echo: %s\n", sc.Text()); err != nil {
			return
		}
	}
}

func main() {
	rt := timer.NewRuntime(
		timer.WithGranularity(5*time.Millisecond),
		timer.WithScheme(timer.NewHashedWheel(1024)),
	)
	defer rt.Close()

	srv, err := newServer(rt)
	if err != nil {
		panic(err)
	}
	defer srv.ln.Close()
	addr := srv.ln.Addr().String()
	fmt.Printf("echo server on %s, idle timeout %v (wheel granularity %v)\n",
		addr, idleAfter, rt.Granularity())

	var wg sync.WaitGroup
	var echoed atomic.Int64
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				fmt.Println("dial:", err)
				return
			}
			defer conn.Close()
			chatty := i%3 != 0 // two thirds keep talking, one third goes idle
			deadline := time.Now().Add(talkFor)
			sc := bufio.NewScanner(conn)
			for time.Now().Before(deadline) {
				if !chatty {
					// Go quiet: wait for the server to reap us.
					buf := make([]byte, 1)
					conn.SetReadDeadline(time.Now().Add(2 * time.Second))
					if _, err := conn.Read(buf); err != nil {
						return // closed by the idle watchdog
					}
					continue
				}
				if _, err := fmt.Fprintf(conn, "hello from %d\n", i); err != nil {
					return
				}
				if !sc.Scan() {
					return
				}
				echoed.Add(1)
				time.Sleep(chattyEvery)
			}
		}()
	}
	wg.Wait()

	quiet := (clients + 2) / 3 // i % 3 == 0 clients go silent
	started, expired, stopped := rt.Stats()
	fmt.Printf("clients       : %d connected (%d chatty, %d quiet)\n",
		srv.accepted.Load(), clients-quiet, quiet)
	fmt.Printf("echoes        : %d lines round-tripped\n", echoed.Load())
	fmt.Printf("idle reaped   : %d connections (expect ~%d quiet ones)\n",
		srv.reaped.Load(), quiet)
	fmt.Printf("wheel ops     : %d starts, %d expiries, %d stops/resets\n",
		started, expired, stopped)
	fmt.Println("every received line was a Reset — an O(1) unlink+relink on the")
	fmt.Println("wheel — so idle management costs the same at 24 or 24,000 conns.")
}
