package trace

// IngestCSV is the one CSV entry point. After the columnar store and the
// allocation-free kernels, cold-start ingest dominates the pipeline (the
// CSV parse took ~3x the placement kernel at Twitter scale 20), so the
// load path gets the same treatment as placement: split the input on
// newline boundaries, parse shards concurrently on internal/par, and merge
// deterministically so the result is bit-identical to the sequential
// encoding/csv reader (readCSV) at any worker count — including error
// messages, quarantine reports and bad-row budget aborts.
//
// The equivalence contract is strict and the test battery pins it:
//
//   - shard boundaries depend only on (input, workers), never scheduling;
//   - each shard parses with its own interning table; the merge re-interns
//     shard dictionaries in shard order, which reproduces the sequential
//     reader's first-appearance order;
//   - malformed rows are recorded per shard with shard-local record and
//     physical-line ordinals; the merge rebases them with prefix sums and
//     replays them through the same quarantine() logic the sequential
//     reader uses, so reports and budget aborts come out byte-identical;
//   - rare shapes with csv-specific normalization (\r handling, quoted
//     fields) are delegated: a line containing '\r' is parsed by a
//     one-line encoding/csv reader, and any input containing '"' falls
//     back to readCSV wholesale. The fast path only handles byte shapes
//     whose csv semantics are trivially the identity.
//
// Profile building reads the built store's seconds column directly
// (profile.BuildUserProfiles); IngestOptions.CollectCells and
// IngestResult.Cells only hand that store back a second time.

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"

	"darkcrowd/internal/par"
)

// IngestOptions tunes IngestCSV. Lenient quarantining, budgets and sample
// caps behave identically on the sharded and the sequential path.
type IngestOptions struct {
	// Lenient switches the reader from fail-fast to quarantining: a
	// malformed row is recorded in the QuarantineReport and skipped instead
	// of aborting the whole load — the paper's real-world corpora are full
	// of gap-ridden records. The header is always strict: a missing or
	// wrong header means the wrong file, not a dirty row.
	Lenient bool
	// MaxBadRows is the lenient mode's bad-row budget: quarantining more
	// than this many rows aborts the read with a *BadRowBudgetError. Zero
	// or negative means no budget (quarantine everything).
	MaxBadRows int
	// SampleCap bounds how many quarantined rows are kept verbatim in the
	// report (default DefaultQuarantineSample). The total count is always
	// exact; only the per-row detail is capped.
	SampleCap int
	// Workers is the shard parallelism (<=0 selects GOMAXPROCS; clamped
	// like par.Workers). The parsed result is bit-identical at any value.
	Workers int
	// CollectCells sets IngestResult.Cells.
	// Kept only for bench/traced.go; delete with the bench-spans item.
	CollectCells bool
}

// IngestResult is what IngestCSV produces: the dataset and the
// lenient-mode quarantine report.
type IngestResult struct {
	Dataset *Dataset
	Report  *QuarantineReport
	// Cells is non-nil when IngestOptions.CollectCells was set and the
	// ingest succeeded.
	// Kept only for bench/traced.go; delete with the bench-spans item.
	Cells *UserCells
}

// UserCells wraps the store of an IngestCSV result for
// profile.BuildUserProfilesFused.
// Kept only for bench/traced.go; delete with the bench-spans item.
type UserCells struct {
	store *Store
}

// Store returns the wrapped columnar store.
func (c *UserCells) Store() *Store { return c.store }

// IngestCSV parses a CSV activity trace (the layout WriteCSV emits) with
// sharded workers and builds the columnar store as part of the merge. On
// error the result is nil, except for a lenient bad-row budget abort,
// which carries the partial quarantine report.
func IngestCSV(name string, data []byte, opts IngestOptions) (*IngestResult, error) {
	if bytes.IndexByte(data, '"') >= 0 {
		// Quoted fields can span commas and newlines; shard splitting on
		// raw '\n' would be wrong. Quotes never appear in our writers'
		// output, so this path exists for correctness, not speed.
		return ingestSequential(name, data, opts)
	}
	bodyStart, headerLines, err := parseCSVHeader(data)
	if err != nil {
		return nil, err
	}
	workers := par.Workers(opts.Workers, len(data)-bodyStart)
	cuts := shardSplit(data, bodyStart, workers)
	keep := 1 // strict mode stops a shard at its first bad row
	if opts.Lenient {
		keep = opts.sampleCap()
	}
	shards := make([]*shardResult, workers)
	if err := par.Ranges(nil, workers, workers, func(start, end int) error {
		for k := start; k < end; k++ {
			shards[k] = parseShard(data[cuts[k]:cuts[k+1]], opts.Lenient, keep)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return mergeShards(name, shards, headerLines, opts)
}

// ingestSequential is the quoted-input fallback: readCSV under
// IngestCSV's result and error contract.
func ingestSequential(name string, data []byte, opts IngestOptions) (*IngestResult, error) {
	ds, report, err := readCSV(name, data, opts)
	if err != nil {
		var budget *BadRowBudgetError
		if errors.As(err, &budget) {
			return &IngestResult{Report: report}, err
		}
		return nil, err
	}
	res := &IngestResult{Dataset: ds, Report: report}
	if opts.CollectCells {
		res.Cells = &UserCells{store: ds.Index()}
	}
	return res, nil
}

// errBlankLine is the internal sentinel for "this physical line is blank
// after csv normalization — skip it without consuming a record ordinal".
// It never escapes the package.
var errBlankLine = errors.New("trace: blank line")

// readOneCSVLine parses a single physical line (raw excludes the '\n'
// terminator; terminated says whether one followed in the input) with a
// real encoding/csv reader, so \r normalization, EOF edge cases and
// field-count errors are csv-exact. physLine rebases the reader's
// 1-based line numbers onto the caller's physical line ordinals.
func readOneCSVLine(raw []byte, terminated bool, physLine, fieldsPer int) ([]string, error) {
	buf := raw
	if terminated {
		buf = make([]byte, 0, len(raw)+1)
		buf = append(append(buf, raw...), '\n')
	}
	cr := csv.NewReader(bytes.NewReader(buf))
	cr.FieldsPerRecord = fieldsPer
	rec, err := cr.Read()
	if errors.Is(err, io.EOF) {
		return nil, errBlankLine
	}
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += physLine - 1
			pe.Line += physLine - 1
		}
		return nil, err
	}
	return rec, nil
}

// parseCSVHeader consumes the header the way readCSV does: blank
// lines are skipped, the first real line must be exactly csvHeader.
// bodyStart is the byte offset of the first body line; headerLines the
// number of physical lines consumed (blanks included).
func parseCSVHeader(data []byte) (bodyStart, headerLines int, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		var raw []byte
		next := len(data)
		terminated := nl >= 0
		if terminated {
			raw, next = data[off:off+nl], off+nl+1
		} else {
			raw = data[off:]
		}
		headerLines++
		var fields []string
		if bytes.IndexByte(raw, '\r') >= 0 {
			fields, err = readOneCSVLine(raw, terminated, headerLines, -1)
			if errors.Is(err, errBlankLine) {
				off = next
				continue
			}
			if err != nil {
				// Unreachable on quote-free input, but keep the
				// sequential reader's wrapping for safety.
				return 0, 0, fmt.Errorf("trace: read CSV header: %w", err)
			}
		} else {
			if len(raw) == 0 {
				off = next
				continue
			}
			fields = splitCommas(raw)
		}
		if len(fields) != len(csvHeader) || fields[0] != csvHeader[0] || fields[1] != csvHeader[1] {
			return 0, 0, fmt.Errorf("trace: unexpected CSV header %v", fields)
		}
		return next, headerLines, nil
	}
	return 0, 0, errors.New("trace: empty CSV")
}

// splitCommas splits a quote-free, \r-free line into csv fields.
func splitCommas(raw []byte) []string {
	fields := make([]string, 0, 2)
	for {
		c := bytes.IndexByte(raw, ',')
		if c < 0 {
			return append(fields, string(raw))
		}
		fields = append(fields, string(raw[:c]))
		raw = raw[c+1:]
	}
}

// shardSplit returns workers+1 cut points into data such that every
// shard [cuts[k], cuts[k+1]) starts at a line start: each interior cut
// sits immediately after a '\n' (or at len(data)), and cuts are
// non-decreasing with cuts[0] = start, cuts[workers] = len(data). A line
// straddling an ideal boundary belongs entirely to the earlier shard.
func shardSplit(data []byte, start, workers int) []int {
	cuts := make([]int, workers+1)
	cuts[0] = start
	size := len(data) - start
	for k := 1; k < workers; k++ {
		target := start + k*size/workers
		if target < cuts[k-1] {
			target = cuts[k-1]
		}
		if target >= len(data) {
			cuts[k] = len(data)
			continue
		}
		if j := bytes.IndexByte(data[target:], '\n'); j >= 0 {
			cuts[k] = target + j + 1
		} else {
			cuts[k] = len(data)
		}
	}
	cuts[workers] = len(data)
	return cuts
}

// shardBad is one malformed record, recorded with shard-local ordinals;
// the merge rebases them with prefix sums.
type shardBad struct {
	rec     int             // shard-local record ordinal (1-based)
	csvErr  *csv.ParseError // CSV-level damage, shard-local line numbers
	timeErr error           // bad timestamp (position-independent message)
	raw     string          // offending timestamp value (time damage only)
}

// shardResult is one shard's parse output: locally-interned columns plus
// the bookkeeping the deterministic merge needs.
type shardResult struct {
	dict    []string         // shard-local user index -> ID, first appearance
	lookup  map[string]int32 // user ID -> shard-local index
	userOf  []int32          // per post: shard-local user index
	when    []int64          // per post: Unix seconds (floor)
	nanoAt  []int32          // shard-local post indices with sub-second parts
	nanoNS  []int32          // parallel to nanoAt: their nanoseconds
	lines   int              // physical lines consumed
	recs    int              // records consumed (non-blank lines)
	bad     []shardBad       // first keep malformed records, in order
	badRows int              // total malformed records
}

// addBad records one malformed record and reports whether the shard
// should stop (strict mode fails fast; lenient keeps scanning).
func (sh *shardResult) addBad(b shardBad, lenient bool, keep int) (stop bool) {
	sh.badRows++
	if len(sh.bad) < keep {
		sh.bad = append(sh.bad, b)
	}
	return !lenient
}

// record processes one well-formed csv row (user, timestamp fields as raw
// bytes) and reports whether the shard should stop.
func (sh *shardResult) record(user, ts []byte, lenient bool, keep int) (stop bool) {
	sec, t, fast, err := parseStamp(ts)
	if err != nil {
		return sh.addBad(shardBad{rec: sh.recs, timeErr: err, raw: string(ts)}, lenient, keep)
	}
	if !fast {
		sec = t.Unix()
		if ns := t.Nanosecond(); ns != 0 {
			// The seconds column holds the floor; the fractional part goes
			// to the sparse sub-second column.
			sh.nanoAt = append(sh.nanoAt, int32(len(sh.when)))
			sh.nanoNS = append(sh.nanoNS, int32(ns))
		}
	}
	u, ok := sh.lookup[string(user)]
	if !ok {
		u = int32(len(sh.dict))
		id := string(user)
		sh.lookup[id] = u
		sh.dict = append(sh.dict, id)
	}
	sh.userOf = append(sh.userOf, u)
	sh.when = append(sh.when, sec)
	return false
}

// parseShard scans one newline-aligned byte range. The fast path handles
// '\r'-free lines with two plain comma-separated fields — byte shapes
// where csv parsing is the identity — and anything containing '\r' is
// delegated to a one-line encoding/csv reader.
func parseShard(seg []byte, lenient bool, keep int) *shardResult {
	sh := &shardResult{lookup: make(map[string]int32)}
	// Size the columns once: a line holds at most one post, and counting
	// newlines is far cheaper than growing the columns by appends.
	lines := bytes.Count(seg, []byte{'\n'}) + 1
	sh.userOf = make([]int32, 0, lines)
	sh.when = make([]int64, 0, lines)
	rest := seg
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		var raw []byte
		terminated := nl >= 0
		if terminated {
			raw, rest = rest[:nl], rest[nl+1:]
		} else {
			raw, rest = rest, nil
		}
		sh.lines++
		if bytes.IndexByte(raw, '\r') >= 0 {
			fields, err := readOneCSVLine(raw, terminated, sh.lines, len(csvHeader))
			if errors.Is(err, errBlankLine) {
				continue
			}
			sh.recs++
			if err != nil {
				var pe *csv.ParseError
				if !errors.As(err, &pe) {
					// Unreachable on quote-free input; never drop it on the
					// floor if encoding/csv grows a new error shape.
					pe = &csv.ParseError{StartLine: sh.lines, Line: sh.lines, Column: 1, Err: err}
				}
				if sh.addBad(shardBad{rec: sh.recs, csvErr: pe}, lenient, keep) {
					return sh
				}
				continue
			}
			if sh.record([]byte(fields[0]), []byte(fields[1]), lenient, keep) {
				return sh
			}
			continue
		}
		if len(raw) == 0 {
			continue // blank line: no record ordinal, like encoding/csv
		}
		sh.recs++
		comma := bytes.IndexByte(raw, ',')
		if comma < 0 || bytes.IndexByte(raw[comma+1:], ',') >= 0 {
			// Wrong field count: synthesize the exact error encoding/csv
			// would produce (verified against the stdlib source: StartLine
			// and Line are the record's first physical line, Column is 1).
			pe := &csv.ParseError{StartLine: sh.lines, Line: sh.lines, Column: 1, Err: csv.ErrFieldCount}
			if sh.addBad(shardBad{rec: sh.recs, csvErr: pe}, lenient, keep) {
				return sh
			}
			continue
		}
		if sh.record(raw[:comma], raw[comma+1:], lenient, keep) {
			return sh
		}
	}
	return sh
}

// offsetParseError rebases a shard-local ParseError onto global physical
// line numbers. It copies — shard results stay untouched so the merge is
// re-runnable.
func offsetParseError(pe *csv.ParseError, lineOff int) *csv.ParseError {
	cp := *pe
	cp.StartLine += lineOff
	cp.Line += lineOff
	return &cp
}

// mergeShards is the single-goroutine deterministic reduction: rebase
// per-shard ordinals with prefix sums, reproduce the sequential reader's
// error/quarantine behavior exactly, re-intern shard dictionaries in
// shard order (= first-appearance order) and build the columnar store. No
// rows are built.
func mergeShards(name string, shards []*shardResult, headerLines int, opts IngestOptions) (*IngestResult, error) {
	recOff := make([]int, len(shards)+1)
	lineOff := make([]int, len(shards)+1)
	postOff := make([]int, len(shards)+1)
	recOff[0] = 1 // the header is record 1; body records continue from 2
	lineOff[0] = headerLines
	for k, sh := range shards {
		recOff[k+1] = recOff[k] + sh.recs
		lineOff[k+1] = lineOff[k] + sh.lines
		postOff[k+1] = postOff[k] + len(sh.when)
	}

	if !opts.Lenient {
		// Strict: the lowest-indexed shard's first bad row is the first bad
		// row of the file (earlier shards parsed fully and cleanly), and it
		// aborts with the sequential reader's exact error.
		for k, sh := range shards {
			if sh.badRows == 0 {
				continue
			}
			b := sh.bad[0]
			rec := recOff[k] + b.rec
			if b.timeErr != nil {
				return nil, fmt.Errorf("trace: parse time on line %d: %w", rec, b.timeErr)
			}
			return nil, fmt.Errorf("trace: read CSV line %d: %w", rec, offsetParseError(b.csvErr, lineOff[k]))
		}
	}

	var report *QuarantineReport
	if opts.Lenient {
		report = &QuarantineReport{}
		// Replay every bad row in global record order (shard order is record
		// order) through the same quarantine logic the sequential reader
		// uses, so sampling, truncation and the budget abort are identical.
		// A row whose detail was capped per-shard can never be sampled: its
		// within-shard index >= keep implies the global sample is already
		// full when it replays.
		for k, sh := range shards {
			for i := 0; i < sh.badRows; i++ {
				var row QuarantinedRow
				if i < len(sh.bad) {
					b := sh.bad[i]
					row = QuarantinedRow{Line: recOff[k] + b.rec}
					if b.timeErr != nil {
						row.Field = csvHeader[1]
						row.Reason = b.timeErr.Error()
						row.Raw = b.raw
					} else {
						row.Field = "record"
						row.Reason = offsetParseError(b.csvErr, lineOff[k]).Error()
					}
				}
				if qerr := opts.quarantine(report, row); qerr != nil {
					return &IngestResult{Report: report}, qerr
				}
			}
		}
	}

	// Re-intern the shard dictionaries into one provisional dictionary
	// (newStore sorts it) and fill the columns directly.
	totalPosts := postOff[len(shards)]
	index := make(map[string]int32)
	var ids []string
	userOf := make([]int32, totalPosts)
	when := make([]int64, totalPosts)
	var nanoAt, nanoNS []int32
	for k, sh := range shards {
		base := postOff[k]
		remap := make([]int32, len(sh.dict))
		for i, id := range sh.dict {
			g, ok := index[id]
			if !ok {
				g = int32(len(ids))
				index[id] = g
				ids = append(ids, id)
			}
			remap[i] = g
		}
		for i, u := range sh.userOf {
			userOf[base+i] = remap[u]
		}
		copy(when[base:], sh.when)
		for j, at := range sh.nanoAt {
			nanoAt = append(nanoAt, int32(base)+at)
			nanoNS = append(nanoNS, sh.nanoNS[j])
		}
	}

	s := newStore(ids, userOf, when, nanoAt, nanoNS)
	res := &IngestResult{Dataset: &Dataset{Name: name, s: s}, Report: report}
	if opts.CollectCells {
		res.Cells = &UserCells{store: s}
	}
	return res, nil
}
