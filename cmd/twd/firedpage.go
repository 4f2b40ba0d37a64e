package main

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// writeFired writes a /v1/fired page. Its bytes are exactly what
// writeJSON(w, firedResponse{Events: events, Next: next}) writes — the
// wire format stays encoding/json's — but built with strconv appends
// instead of reflection: a fire storm leaves as one page of a thousand
// events, and the page is on every fire's path to the client.
//
// It sets Content-Length and flushes, so the whole page is on the wire
// when it returns, whatever the handler does next.
func writeFired(w http.ResponseWriter, events []firedEvent, next uint64) {
	bp := pageBufs.Get().(*[]byte)
	*bp = appendFiredPage((*bp)[:0], events, next)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	w.Write(*bp)
	pageBufs.Put(bp)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// pageBufs recycles page buffers: a storm's page runs to ~100 KB.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendFiredPage appends the JSON page to b: the firedResponse
// encoding, nil events as null, and the Encoder's trailing newline.
func appendFiredPage(b []byte, events []firedEvent, next uint64) []byte {
	b = append(b, `{"events":`...)
	if events == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range events {
			ev := &events[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"seq":`...)
			b = strconv.AppendUint(b, ev.Seq, 10)
			b = append(b, `,"id":`...)
			b = strconv.AppendUint(b, ev.ID, 10)
			b = append(b, `,"fired_unix_ns":`...)
			b = strconv.AppendInt(b, ev.FiredNS, 10)
			b = append(b, `,"lag_ns":`...)
			b = strconv.AppendInt(b, ev.LagNS, 10)
			if ev.Payload != "" {
				b = append(b, `,"payload":`...)
				b = appendJSONString(b, ev.Payload)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"next":`...)
	b = strconv.AppendUint(b, next, 10)
	return append(b, "}\n"...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json's
// Encoder does with HTML escaping on: <, > and & as \u00XX, the short
// escapes for quote, backslash, \b, \f, \n, \r and \t, other control
// bytes as \u00XX, each invalid UTF-8 byte as \ufffd, and U+2028 and
// U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
