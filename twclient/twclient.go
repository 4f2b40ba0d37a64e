// Package twclient is a small failover-aware HTTP client for the twd
// timer daemon. It tracks a set of candidate endpoints, rediscovers
// the primary when a node answers 421 (standby or fenced) or 503
// (draining), honors Retry-After, retries transient failures with
// full-jitter exponential backoff, and echoes the highest fencing
// term it has seen on every request — which is what lets a deposed
// primary detect its own staleness the moment an up-to-date client
// touches it.
package twclient

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// HeaderTerm mirrors replica.HeaderTerm without importing the server's
// internals: the fencing term stamped on every twd response and echoed
// back on every client request.
const HeaderTerm = "X-Twd-Term"

// HeaderTrace is the request correlation ID. The client stamps one per
// logical call — every retry of that call reuses it, so the daemon's
// stage exemplars show the whole retry storm under one ID — and twd
// echoes it on the response for log correlation.
const HeaderTrace = "X-Twd-Trace"

// APIError is a non-retryable daemon rejection: a 4xx with a
// machine-readable code from the {"error": ..., "message": ...} body.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("twd: %d %s: %s", e.Status, e.Code, e.Message)
}

// Config configures a Client. Only Endpoints is required.
type Config struct {
	// Endpoints are candidate twd base URLs (e.g. "http://127.0.0.1:7474").
	// The first is tried initially; rediscovery rotates through the rest.
	Endpoints []string

	// HTTP is the underlying client. Defaults to a 30s-timeout client —
	// long enough for a bounded /v1/fired long poll.
	HTTP *http.Client

	// MaxAttempts bounds one logical call, counting the first try.
	// Default 8.
	MaxAttempts int

	// BackoffBase and BackoffCap shape the full-jitter exponential
	// backoff: attempt n sleeps uniform(0, min(cap, base<<n)).
	// Defaults 25ms and 2s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

// Client is safe for concurrent use.
type Client struct {
	cfg Config

	tracePrefix string        // per-client random prefix for trace IDs
	traceSeq    atomic.Uint64 // per-client trace counter

	mu   sync.Mutex
	cur  int    // index into cfg.Endpoints currently believed primary
	term uint64 // highest fencing term observed
	rng  *rand.Rand
}

// New builds a Client. At least one endpoint is required.
func New(cfg Config) (*Client, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("twclient: no endpoints")
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 2 * time.Second
	}
	var pfx [4]byte
	if _, err := crand.Read(pfx[:]); err != nil {
		// Trace IDs only need uniqueness, not unpredictability.
		copy(pfx[:], []byte{0x7c, 0x11, 0xe9, 0x70})
	}
	return &Client{
		cfg:         cfg,
		tracePrefix: hex.EncodeToString(pfx[:]),
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}, nil
}

// nextTrace mints a correlation ID: client prefix + call counter, so
// IDs from different client processes never collide and sort by call
// order within one client.
func (c *Client) nextTrace() string {
	return fmt.Sprintf("%s-%x", c.tracePrefix, c.traceSeq.Add(1))
}

// Term reports the highest fencing term this client has observed.
func (c *Client) Term() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term
}

// Endpoint reports the base URL the client currently believes is the
// primary.
func (c *Client) Endpoint() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Endpoints[c.cur]
}

// noteTerm folds a response's term stamp into the high-water mark.
func (c *Client) noteTerm(resp *http.Response) {
	ts := resp.Header.Get(HeaderTerm)
	if ts == "" {
		return
	}
	t, err := strconv.ParseUint(ts, 10, 64)
	if err != nil {
		return
	}
	c.mu.Lock()
	if t > c.term {
		c.term = t
	}
	c.mu.Unlock()
}

// rediscover finds the primary after a 421/503/network failure: it
// probes every endpoint's /healthz (short timeout, no retries) and
// adopts the first that reports role "primary" with the highest term
// seen so far or better. If nobody claims the role — mid-failover —
// it simply rotates to the next candidate and lets backoff pace the
// next probe.
func (c *Client) rediscover(ctx context.Context) {
	probe := &http.Client{Timeout: 2 * time.Second, Transport: c.cfg.HTTP.Transport}
	for i, ep := range c.cfg.Endpoints {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep+"/healthz", nil)
		if err != nil {
			continue
		}
		resp, err := probe.Do(req)
		if err != nil {
			continue
		}
		var body struct {
			Role string `json:"role"`
			Term uint64 `json:"term"`
		}
		derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body)
		resp.Body.Close()
		c.noteTerm(resp)
		if derr == nil && body.Role == "primary" {
			c.mu.Lock()
			c.cur = i
			c.mu.Unlock()
			return
		}
	}
	c.mu.Lock()
	c.cur = (c.cur + 1) % len(c.cfg.Endpoints)
	c.mu.Unlock()
}

// backoff sleeps with full jitter: uniform(0, min(cap, base<<attempt)),
// or until a server-provided Retry-After elapses, whichever the caller
// passed. Context cancellation cuts the sleep short.
func (c *Client) backoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	var d time.Duration
	if retryAfter > 0 {
		d = retryAfter
	} else {
		ceil := c.cfg.BackoffBase << uint(attempt)
		if ceil > c.cfg.BackoffCap || ceil <= 0 {
			ceil = c.cfg.BackoffCap
		}
		c.mu.Lock()
		d = time.Duration(c.rng.Int63n(int64(ceil) + 1))
		c.mu.Unlock()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfter parses a Retry-After header as delay-seconds. HTTP-date
// form is ignored (twd never sends it); malformed values fall back to
// jittered backoff.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do runs one logical call with retries. Retryable outcomes: network
// errors, 421 (wrong node — rediscover), 429 and 503 (pressure — honor
// Retry-After; 503 also rediscovers, since twd answers it while
// draining for a fence or shutdown), and 5xx. Every other 4xx is the
// daemon refusing the request itself: surfaced as *APIError, no retry.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var reqBody []byte
	if in != nil {
		var err error
		if reqBody, err = json.Marshal(in); err != nil {
			return fmt.Errorf("twclient: encode: %w", err)
		}
	}

	// One trace ID for the whole logical call: retries reuse it, so the
	// daemon's exemplars and logs tie every attempt together.
	trace := c.nextTrace()

	var lastErr error
	var ra time.Duration // server-directed wait for the next attempt
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt-1, ra); err != nil {
				return err
			}
			ra = 0
		}

		ep := c.Endpoint()
		req, err := http.NewRequestWithContext(ctx, method, ep+path, bytes.NewReader(reqBody))
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if t := c.Term(); t > 0 {
			req.Header.Set(HeaderTerm, strconv.FormatUint(t, 10))
		}
		req.Header.Set(HeaderTrace, trace)

		resp, err := c.cfg.HTTP.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			c.rediscover(ctx)
			continue
		}
		c.noteTerm(resp)
		body, rerr := readBody(resp)
		resp.Body.Close()

		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			if rerr != nil {
				lastErr = rerr
				continue
			}
			if out != nil {
				if err := decodeBody(body, out); err != nil {
					return fmt.Errorf("twclient: decode %s: %w", path, err)
				}
			}
			return nil
		case resp.StatusCode == http.StatusMisdirectedRequest:
			lastErr = &httpRetryError{status: resp.StatusCode, code: errorCode(body)}
			c.rediscover(ctx)
		case resp.StatusCode == http.StatusServiceUnavailable:
			lastErr = &httpRetryError{status: resp.StatusCode, code: errorCode(body)}
			ra = retryAfter(resp)
			c.rediscover(ctx)
		case resp.StatusCode == http.StatusTooManyRequests:
			lastErr = &httpRetryError{status: resp.StatusCode, code: errorCode(body)}
			ra = retryAfter(resp)
		case resp.StatusCode >= 500:
			lastErr = &httpRetryError{status: resp.StatusCode, code: errorCode(body)}
		default:
			apiErr := &APIError{Status: resp.StatusCode, Code: errorCode(body)}
			var msg struct {
				Message string `json:"message"`
			}
			if json.Unmarshal(body, &msg) == nil {
				apiErr.Message = msg.Message
			}
			return apiErr
		}
	}
	return fmt.Errorf("twclient: %s %s: attempts exhausted: %w", method, path, lastErr)
}

// httpRetryError carries a retryable HTTP status between attempts.
type httpRetryError struct {
	status int
	code   string
}

func (e *httpRetryError) Error() string {
	return fmt.Sprintf("twd: retryable %d %s", e.status, e.code)
}

// maxBody caps a response body the client reads.
const maxBody = 8 << 20

// readBody reads a response body of up to maxBody bytes, into one
// buffer sized from Content-Length when the server sent one (twd does
// for /v1/fired pages, which run to ~100 KB).
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n > 0 && n <= maxBody {
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxBody))
}

// decodeBody decodes a success body into out: a /v1/fired page through
// its own parser, anything else with encoding/json.
func decodeBody(body []byte, out any) error {
	if page, ok := out.(*FiredPage); ok {
		return page.decodeBody(body)
	}
	return json.Unmarshal(body, out)
}

func decodeJSON(resp *http.Response, v any) error {
	return json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(v)
}

func errorCode(body []byte) string {
	var v struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &v) == nil {
		return v.Error
	}
	return ""
}
