package twclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// encodePage writes page the way twd does: encoding/json's Encoder,
// HTML escaping on, trailing newline.
func encodePage(tb testing.TB, page FiredPage) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(page); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// storm is a page of n events as a fire storm leaves twd.
func storm(n int) FiredPage {
	page := FiredPage{Events: make([]FiredEvent, n), Next: uint64(1_000_000 + n)}
	for i := range page.Events {
		page.Events[i] = FiredEvent{
			Seq: uint64(1_000_001 + i), ID: uint64(5_000_000 + i),
			FiredNS: 1_760_000_000_123_456_789, LagNS: int64(2_000_000 + i),
		}
	}
	return page
}

// TestFiredPageFastPath: twd's page shape decodes without encoding/json
// — empty, null and extreme values included — and to exactly what
// json.Unmarshal produces.
func TestFiredPageFastPath(t *testing.T) {
	pages := []FiredPage{
		{Events: nil, Next: 0},
		{Events: []FiredEvent{}, Next: 7},
		storm(3),
		{Events: []FiredEvent{
			{Seq: math.MaxUint64, ID: math.MaxUint64, FiredNS: math.MaxInt64, LagNS: math.MinInt64},
			{Seq: 0, ID: 0, FiredNS: math.MinInt64, LagNS: -1, Payload: "plain payload, naïve ✓"},
		}, Next: math.MaxUint64},
	}
	for i, page := range pages {
		body := encodePage(t, page)
		got, ok := parseFiredPage(body)
		if !ok {
			t.Fatalf("page %d: fast path refused twd's shape %q", i, body)
		}
		var want FiredPage
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("page %d: fast path %+v, json %+v", i, got, want)
		}
	}
}

// TestFiredPageFallback: bodies off twd's exact shape are left to
// encoding/json, which decodes (or refuses) them as before.
func TestFiredPageFallback(t *testing.T) {
	for _, body := range []string{
		`{"events":[{"seq":1,"id":2,"fired_unix_ns":3,"lag_ns":4,"payload":"\u003cb\u003e"}],"next":1}`,
		`{ "events": [], "next": 1 }`,
		`{"next":1,"events":[]}`,
		`{"events":[{"seq":1,"id":2,"fired_unix_ns":3,"lag_ns":4,"extra":true}],"next":1}`,
		`{"events":[],"next":18446744073709551616}`,
		`{"events":[],"next":01}`,
		`{"events":[],"next":1}` + "\n\n",
		`{"events":[],"next":1`,
		`not json`,
	} {
		if _, ok := parseFiredPage([]byte(body)); ok {
			t.Errorf("fast path accepted %q", body)
		}
		var got, want FiredPage
		gotErr := got.decodeBody([]byte(body))
		wantErr := json.Unmarshal([]byte(body), &want)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: decodeBody %+v (%v), json %+v (%v)", body, got, gotErr, want, wantErr)
		}
	}
}

// FuzzFiredPageDecode: whenever the fast path accepts a body, json.Unmarshal
// accepts it too and decodes the same page.
func FuzzFiredPageDecode(f *testing.F) {
	f.Add(encodePage(f, storm(2)))
	f.Add(encodePage(f, FiredPage{Events: []FiredEvent{{Seq: 1, ID: 2, FiredNS: -3, LagNS: 0, Payload: `<"\>` + "\x01é "}}, Next: 1}))
	f.Add(encodePage(f, FiredPage{Events: []FiredEvent{{Seq: math.MaxUint64, FiredNS: math.MinInt64, Payload: "ok"}}}))
	f.Add([]byte(`{"events":null,"next":0}`))
	f.Add([]byte(`{"events":[],"next":0}` + "\n"))
	f.Add([]byte(`{"events":[{"seq":1,"id":2,"fired_unix_ns":-0,"lag_ns":-9223372036854775808,"payload":"aé"}],"next":3}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := parseFiredPage(body)
		if !ok {
			return
		}
		var want FiredPage
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("fast path accepted %q, which json.Unmarshal refuses: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: fast path %+v, json %+v", body, got, want)
		}
	})
}

// BenchmarkFiredPage times decoding a 1000-event page, as a fire storm
// leaves twd, with the fast path and with encoding/json.
func BenchmarkFiredPage(b *testing.B) {
	body := encodePage(b, storm(1000))
	for _, c := range []struct {
		name   string
		decode func(*FiredPage) error
	}{
		{"fast", func(p *FiredPage) error { return p.decodeBody(body) }},
		{"json", func(p *FiredPage) error { return json.Unmarshal(body, p) }},
	} {
		b.Run(fmt.Sprintf("decode/%s", c.name), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var page FiredPage
				if err := c.decode(&page); err != nil || len(page.Events) != 1000 {
					b.Fatalf("decode: %v, %d events", err, len(page.Events))
				}
			}
		})
	}
}
