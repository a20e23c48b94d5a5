package pipeline

import (
	"testing"
)

// refDecode is the reflection path parseIngestLine must agree with: the
// daemon's fallback lane, json.Unmarshal plus its accept checks.
func refDecode(line []byte) (user string, unixSec int64, ok bool) {
	u, sec, ok := decodeSlowLine(line)
	return string(u), sec, ok
}

func TestParseIngestLineAccepts(t *testing.T) {
	cases := []string{
		`{"user_id":"alice","time":"2017-03-01T12:34:56Z"}`,
		`{"time":"2017-03-01T12:34:56Z","user_id":"alice"}`, // key order free
		`  { "user_id" : "bob" , "time" : "1999-12-31T23:59:59Z" }  `,
		`{"user_id":"x","time":"2017-03-01T12:34:56+05:30"}`, // offset: slow stamp lane
		`{"user_id":"x","time":"2017-03-01T12:34:56.25Z"}`,   // fractional: slow stamp lane
	}
	for _, c := range cases {
		user, sec, ok := parseIngestLine([]byte(c))
		if !ok {
			t.Errorf("parseIngestLine(%q) fell back, want fast accept", c)
			continue
		}
		wantUser, wantSec, wantOK := refDecode([]byte(c))
		if !wantOK || string(user) != wantUser || sec != wantSec {
			t.Errorf("parseIngestLine(%q) = (%q, %d), reference = (%q, %d, %v)",
				c, user, sec, wantUser, wantSec, wantOK)
		}
	}
}

func TestParseIngestLineFallsBack(t *testing.T) {
	// All of these must go to the slow lane — some are valid JSON the fast
	// scanner refuses to guess at, some are garbage. Either way ok=false,
	// and the reference decoder is the authority on what happens next.
	cases := []string{
		``,
		`not json`,
		`{"user_id":"alice"}`, // missing time
		`{"user_id":"","time":"2017-03-01T12:34:56Z"}`,                  // empty user
		"{\"user_id\":\"a\\u0041b\",\"time\":\"2017-03-01T12:34:56Z\"}", // escape
		`{"user_id":"ünïcode","time":"2017-03-01T12:34:56Z"}`,           // non-ASCII
		`{"user_id":"a","time":"2017-03-01T12:34:56Z","x":1}`,           // extra key
		`{"user_id":"a","user_id":"b","time":"2017-03-01T12:34:56Z"}`,   // dup key
		`{"user_id":"a","time":"0001-01-01T00:00:00Z"}`,                 // zero instant
		`{"user_id":"a","time":"not a time"}`,
		`{"user_id":"a","time":"2017-13-01T12:34:56Z"}`, // bad month
		`{"user_id":"a","time":"2017-03-01T12:34:56Z"} trailing`,
		`{"user_id":123,"time":"2017-03-01T12:34:56Z"}`, // non-string user
	}
	for _, c := range cases {
		if _, _, ok := parseIngestLine([]byte(c)); ok {
			t.Errorf("parseIngestLine(%q) accepted, want fallback", c)
		}
	}
	// Instants outside UTC years 0000–9999 are bad lines in both lanes,
	// as they are in CSV ingest.
	for _, c := range []string{
		`{"user_id":"a","time":"0000-01-01T00:30:00+01:00"}`,
		`{"user_id":"a","time":"9999-12-31T23:30:00-01:00"}`,
	} {
		if _, _, ok := parseIngestLine([]byte(c)); ok {
			t.Errorf("parseIngestLine(%q) accepted, want fallback", c)
		}
		if _, _, ok := decodeSlowLine([]byte(c)); ok {
			t.Errorf("decodeSlowLine(%q) accepted, want a bad line", c)
		}
	}
}

// TestParseIngestLineZeroAlloc pins the hot-path contract: decoding a
// plain well-formed line allocates nothing.
func TestParseIngestLineZeroAlloc(t *testing.T) {
	line := []byte(`{"user_id":"user-00042","time":"2017-03-01T12:34:56Z"}`)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := parseIngestLine(line); !ok {
			t.Fatal("fast path rejected a plain line")
		}
	})
	if allocs != 0 {
		t.Errorf("fast-path decode allocates %v per line, want 0", allocs)
	}
}

// FuzzParseIngestLineEquivalence is the soundness contract: any line the
// fast path accepts must be one the reflection path accepts with exactly
// the same user and second. (Fallback on ok=false is always safe, so
// rejections need no check.)
func FuzzParseIngestLineEquivalence(f *testing.F) {
	f.Add(`{"user_id":"alice","time":"2017-03-01T12:34:56Z"}`)
	f.Add(`{"time":"2017-03-01T12:34:56Z","user_id":"alice"}`)
	f.Add(` {"user_id" : "b" , "time":"2038-01-19T03:14:07Z"} `)
	f.Add(`{"user_id":"a","time":"2017-03-01T12:34:56+05:30"}`)
	f.Add(`{"user_id":"a","time":"0001-01-01T00:00:00Z"}`)
	f.Add(`{"user_id":"a","time":"0000-01-01T00:30:00+01:00"}`)
	f.Add(`{"user_id":"a\"b","time":"2017-03-01T12:34:56Z"}`)
	f.Add(`{"user_id":"a","time":"2017-02-29T00:00:00Z"}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, line string) {
		user, sec, ok := parseIngestLine([]byte(line))
		if !ok {
			return
		}
		wantUser, wantSec, wantOK := refDecode([]byte(line))
		if !wantOK {
			t.Fatalf("fast path accepted %q, reference rejects it", line)
		}
		if string(user) != wantUser || sec != wantSec {
			t.Fatalf("fast path %q = (%q, %d), reference = (%q, %d)",
				line, user, sec, wantUser, wantSec)
		}
	})
}
