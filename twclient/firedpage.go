package twclient

import (
	"encoding/json"
	"unicode/utf8"
)

// decodeBody decodes a /v1/fired response. twd writes one exact shape —
// fixed key order, no whitespace, the Encoder's trailing newline — and
// a page can carry thousands of events, so that shape is parsed
// directly. Anything else (reordered or extra keys, whitespace, escaped
// payloads, out-of-range numbers) goes to encoding/json: the body is
// input from outside the program, and the fast path only ever accepts
// what json.Unmarshal would decode to the same page.
func (p *FiredPage) decodeBody(body []byte) error {
	if page, ok := parseFiredPage(body); ok {
		*p = page
		return nil
	}
	*p = FiredPage{}
	return json.Unmarshal(body, p)
}

// pageParser is a cursor over a page body; ok turns false at the first
// byte that strays from twd's shape, after which every step is a no-op.
type pageParser struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes the literal s.
func (q *pageParser) lit(s string) {
	if !q.ok || len(q.b)-q.i < len(s) || string(q.b[q.i:q.i+len(s)]) != s {
		q.ok = false
		return
	}
	q.i += len(s)
}

// peek reports whether the next bytes are s, without consuming them.
func (q *pageParser) peek(s string) bool {
	return q.ok && len(q.b)-q.i >= len(s) && string(q.b[q.i:q.i+len(s)]) == s
}

// uint parses a JSON number that fits a uint64: "0" or digits without a
// leading zero, no sign, fraction or exponent.
func (q *pageParser) uint() uint64 {
	if !q.ok || q.i >= len(q.b) {
		q.ok = false
		return 0
	}
	start := q.i
	var v uint64
	for q.i < len(q.b) && q.b[q.i] >= '0' && q.b[q.i] <= '9' {
		d := uint64(q.b[q.i] - '0')
		if v > (1<<64-1-d)/10 {
			q.ok = false // overflow
			return 0
		}
		v = v*10 + d
		q.i++
	}
	if n := q.i - start; n == 0 || n > 1 && q.b[start] == '0' {
		q.ok = false
		return 0
	}
	return v
}

// int parses a JSON number that fits an int64: an optional minus, then
// what uint accepts.
func (q *pageParser) int() int64 {
	neg := q.peek("-")
	if neg {
		q.i++
	}
	u := q.uint()
	switch {
	case !q.ok:
		return 0
	case neg && u <= 1<<63:
		return int64(-u)
	case !neg && u < 1<<63:
		return int64(u)
	}
	q.ok = false // out of int64 range
	return 0
}

// str parses a JSON string with no escapes: printable bytes other than
// quote and backslash, valid UTF-8. Escapes and invalid UTF-8 (which
// json.Unmarshal rewrites) leave the fast path.
func (q *pageParser) str() string {
	q.lit(`"`)
	if !q.ok {
		return ""
	}
	start, ascii := q.i, true
	for ; q.i < len(q.b); q.i++ {
		c := q.b[q.i]
		if c == '"' {
			break
		}
		if c < 0x20 || c == '\\' {
			q.ok = false
			return ""
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	s := q.b[start:q.i]
	q.lit(`"`)
	if !q.ok || !ascii && !utf8.Valid(s) {
		q.ok = false
		return ""
	}
	return string(s)
}

// parseFiredPage parses twd's exact page shape; ok is false for any
// other body.
func parseFiredPage(body []byte) (page FiredPage, ok bool) {
	q := &pageParser{b: body, ok: true}
	q.lit(`{"events":`)
	if q.peek("null") {
		q.lit("null")
	} else {
		q.lit("[")
		// A twd event takes at least ~60 bytes; size for that.
		page.Events = make([]FiredEvent, 0, len(body)/64)
		for q.ok && !q.peek("]") {
			if len(page.Events) > 0 {
				q.lit(",")
			}
			var ev FiredEvent
			q.lit(`{"seq":`)
			ev.Seq = q.uint()
			q.lit(`,"id":`)
			ev.ID = q.uint()
			q.lit(`,"fired_unix_ns":`)
			ev.FiredNS = q.int()
			q.lit(`,"lag_ns":`)
			ev.LagNS = q.int()
			if q.peek(`,"payload":`) {
				q.lit(`,"payload":`)
				ev.Payload = q.str()
			}
			q.lit("}")
			page.Events = append(page.Events, ev)
		}
		q.lit("]")
	}
	q.lit(`,"next":`)
	page.Next = q.uint()
	q.lit("}")
	if q.peek("\n") {
		q.i++
	}
	if !q.ok || q.i != len(body) {
		return FiredPage{}, false
	}
	return page, true
}
