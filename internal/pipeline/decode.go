package pipeline

// The ingest hot path decoder. The NDJSON ingest shape is fixed — one
// {"user_id": <string>, "time": <RFC3339 string>} object per line — so the
// daemon does not need encoding/json's reflection walk (~1.5µs and several
// allocations per line) to read it. parseIngestLine is a single
// left-to-right scan that borrows the user ID straight out of the line
// buffer and reuses trace's RFC3339 fast path for the timestamp: zero
// allocations per accepted line.
//
// The scanner is deliberately narrow. Anything outside the plain shape —
// escape sequences, non-ASCII bytes, unknown or duplicate keys, non-string
// values — makes it return ok=false, and the caller falls back to
// encoding/json, which remains the semantic authority. The fast path must
// therefore be *sound*, never *complete*: every line it accepts must
// decode to exactly the (user, second) the reflection path would produce
// (the fuzz test in decode_test.go pins this), but lines it rejects are
// fine — they just take the slow lane.

import (
	"encoding/json"
	"sync"

	"darkcrowd/internal/trace"
)

// zeroUnixSec is time.Time{}.Unix(). The reflection path drops lines whose
// parsed Time.IsZero(); the fast path must bounce the same instant back to
// the slow lane so both agree.
const zeroUnixSec = -62135596800

// lineBufPool recycles the 64 KiB bufio.Scanner buffers across ingest
// requests, so a request costs one pool hit instead of one large make.
var lineBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 64*1024)
		return &b
	},
}

// skipJSONSpace advances i past JSON whitespace.
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// scanPlainString reads the JSON string whose opening quote is at b[i] and
// returns its raw contents plus the index just past the closing quote. ok
// is false for anything the borrow-in-place trick can't represent
// verbatim: escape sequences, control bytes, non-ASCII (encoding/json
// rewrites invalid UTF-8, so the fast path refuses to guess), or an
// unterminated string.
func scanPlainString(b []byte, i int) (s []byte, next int, ok bool) {
	i++ // opening quote, checked by the caller
	start := i
	for i < len(b) {
		c := b[i]
		if c == '"' {
			return b[start:i], i + 1, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, 0, false
		}
		i++
	}
	return nil, 0, false
}

// parseIngestLine decodes one ingest line on the fast path. When ok, user
// aliases line (valid only until the caller's buffer is reused) and
// unixSec is exactly what the encoding/json path would have produced via
// Time.Unix(); user is never empty and the instant never zero. When !ok
// the caller must fall back to encoding/json — the line may still be
// valid, just not plain enough.
func parseIngestLine(line []byte) (user []byte, unixSec int64, ok bool) {
	i := skipJSONSpace(line, 0)
	if i >= len(line) || line[i] != '{' {
		return nil, 0, false
	}
	i = skipJSONSpace(line, i+1)
	var stamp []byte
	var haveUser, haveStamp bool
	for k := 0; k < 2; k++ {
		if i >= len(line) || line[i] != '"' {
			return nil, 0, false
		}
		key, j, kok := scanPlainString(line, i)
		if !kok {
			return nil, 0, false
		}
		i = skipJSONSpace(line, j)
		if i >= len(line) || line[i] != ':' {
			return nil, 0, false
		}
		i = skipJSONSpace(line, i+1)
		if i >= len(line) || line[i] != '"' {
			return nil, 0, false
		}
		val, j2, vok := scanPlainString(line, i)
		if !vok {
			return nil, 0, false
		}
		i = skipJSONSpace(line, j2)
		switch {
		case string(key) == "user_id" && !haveUser:
			haveUser, user = true, val
		case string(key) == "time" && !haveStamp:
			haveStamp, stamp = true, val
		default:
			return nil, 0, false // unknown or duplicate key
		}
		if k == 0 {
			if i >= len(line) || line[i] != ',' {
				return nil, 0, false
			}
			i = skipJSONSpace(line, i+1)
		}
	}
	if i >= len(line) || line[i] != '}' {
		return nil, 0, false
	}
	if skipJSONSpace(line, i+1) != len(line) {
		return nil, 0, false
	}
	if !haveUser || !haveStamp || len(user) == 0 {
		return nil, 0, false
	}
	sec, ts, fast, err := trace.ParseStamp(stamp)
	if err != nil {
		return nil, 0, false
	}
	if !fast {
		// Offset timezones and fractional seconds take the stdlib parse
		// inside ParseStamp; still cheaper than the full reflection walk.
		if ts.IsZero() {
			return nil, 0, false
		}
		return user, ts.Unix(), true
	}
	if sec == zeroUnixSec {
		return nil, 0, false
	}
	return user, sec, true
}

// decodeSlowLine is the reflection lane for lines parseIngestLine refuses
// (escapes, reordered whitespace, garbage): a full encoding/json decode,
// accepted when the user ID is non-empty, the instant non-zero and inside
// trace.InStampRange — the range the fast lane's trace.ParseStamp keeps
// too, so both lanes refuse the same instants.
func decodeSlowLine(line []byte) (user []byte, unixSec int64, ok bool) {
	var p ingestPost
	if err := json.Unmarshal(line, &p); err != nil || p.UserID == "" || p.Time.IsZero() || !trace.InStampRange(p.Time) {
		return nil, 0, false
	}
	return []byte(p.UserID), p.Time.Unix(), true
}
