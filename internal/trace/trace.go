// Package trace defines the activity-trace data model every other part of
// the reproduction consumes: a post is a (user, UTC timestamp) pair, and a
// dataset is a named collection of posts with optional ground-truth region
// labels.
//
// This mirrors the paper's data handling: "The data collected (only author
// ID and time of posting, without the body of the forum post)" (§VIII). A
// trace "can be of any kind: posts, comments to posts, messages exchanged,
// access times, or even all the above" (§IV) — everything reduces to
// timestamped user activity.
package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// Post is a single activity event: a user posted at an instant, normalized
// to UTC.
type Post struct {
	UserID string    `json:"user_id"`
	Time   time.Time `json:"time"`
}

// Dataset is a named activity trace: a name, optional ground truth mapping
// user IDs to region codes for datasets with verified origin (the Twitter
// dataset of Table I, or validation forums), and the posts, held in one
// immutable columnar Store built when the dataset is constructed. The
// zero value is an empty dataset. Methods never modify the posts; the
// derived-dataset methods return new datasets.
type Dataset struct {
	Name        string
	GroundTruth map[string]string

	s *Store // nil for an empty dataset
}

// NewDataset builds a dataset from rows, keeping their order. The rows are
// copied into the columnar store; posts is not retained.
func NewDataset(name string, posts []Post) *Dataset {
	return &Dataset{Name: name, s: buildStore(posts)}
}

// copyGroundTruth returns a deep copy of a ground-truth map (nil for nil).
// Derived datasets must never alias the source's map: a caller mutating the
// filtered copy would silently corrupt the original.
func copyGroundTruth(gt map[string]string) map[string]string {
	if gt == nil {
		return nil
	}
	out := make(map[string]string, len(gt))
	for k, v := range gt {
		out[k] = v
	}
	return out
}

// derive wraps a store built from d's posts as a new dataset with d's name
// and a copy of its ground truth.
func (d *Dataset) derive(s *Store) *Dataset {
	return &Dataset{Name: d.Name, GroundTruth: copyGroundTruth(d.GroundTruth), s: s}
}

// NumPosts returns the number of posts.
func (d *Dataset) NumPosts() int { return len(d.Index().userOf) }

// Post returns post i (0 <= i < NumPosts) in dataset order, with its exact
// instant in UTC.
func (d *Dataset) Post(i int) Post { return d.Index().post(i) }

// Users returns the distinct user IDs, sorted — a copy of the store's
// dictionary.
func (d *Dataset) Users() []string {
	s := d.Index()
	out := make([]string, len(s.ids))
	copy(out, s.ids)
	return out
}

// ByUser groups posts by user ID. Post order within a user follows the
// dataset order. The groups are views carved out of one shared backing
// array (capped, so appending to one group cannot clobber a neighbour).
func (d *Dataset) ByUser() map[string][]Post {
	s := d.Index()
	backing := make([]Post, len(s.posts))
	for k, pos := range s.posts {
		backing[k] = s.post(int(pos))
	}
	out := make(map[string][]Post, len(s.ids))
	for u, id := range s.ids {
		lo, hi := s.offsets[u], s.offsets[u+1]
		out[id] = backing[lo:hi:hi]
	}
	return out
}

// PostCounts returns the number of posts per user, read off the store's
// offsets.
func (d *Dataset) PostCounts() map[string]int {
	s := d.Index()
	out := make(map[string]int, len(s.ids))
	for u, id := range s.ids {
		out[id] = int(s.offsets[u+1] - s.offsets[u])
	}
	return out
}

// TimeRange returns the earliest and latest post times. ok is false for an
// empty dataset.
func (d *Dataset) TimeRange() (first, last time.Time, ok bool) {
	s := d.Index()
	n := len(s.when)
	if n == 0 {
		return time.Time{}, time.Time{}, false
	}
	if s.sortedByTime {
		return s.time(0), s.time(n - 1), true
	}
	lo, hi := 0, 0
	for i := 1; i < n; i++ {
		if s.before(i, s.when[lo], s.nano(lo)) {
			lo = i
		}
		if s.before(hi, s.when[i], s.nano(i)) {
			hi = i
		}
	}
	return s.time(lo), s.time(hi), true
}

// FilterUsers returns a new dataset keeping only posts whose user the
// predicate accepts. Ground truth entries for dropped users are removed.
// The predicate is evaluated once per distinct user, not once per post.
func (d *Dataset) FilterUsers(keep func(userID string) bool) *Dataset {
	s := d.Index()
	keepUser := make([]bool, s.NumUsers())
	for u, id := range s.ids {
		keepUser[u] = keep(id)
	}
	out := &Dataset{Name: d.Name, s: s.subset(func(i int) bool { return keepUser[s.userOf[i]] })}
	if d.GroundTruth != nil {
		out.GroundTruth = make(map[string]string)
		for u, r := range d.GroundTruth {
			if keep(u) {
				out.GroundTruth[u] = r
			}
		}
	}
	return out
}

// FilterPosts returns a new dataset keeping only posts the predicate
// accepts. Ground truth is carried over (as a copy, so the datasets stay
// independent).
func (d *Dataset) FilterPosts(keep func(Post) bool) *Dataset {
	s := d.Index()
	return d.derive(s.subset(func(i int) bool { return keep(s.post(i)) }))
}

// FilterMinPosts drops users with fewer than min posts — the paper's
// active-user threshold ("we chose the threshold to be 30 posts", §IV).
func (d *Dataset) FilterMinPosts(min int) *Dataset {
	s := d.Index()
	return d.FilterUsers(func(id string) bool {
		u, ok := s.Lookup(id)
		return ok && s.Count(u) >= min
	})
}

// Window returns the posts falling in [from, to).
func (d *Dataset) Window(from, to time.Time) *Dataset {
	s := d.Index()
	fromSec, fromNS := from.Unix(), int32(from.Nanosecond())
	toSec, toNS := to.Unix(), int32(to.Nanosecond())
	return d.derive(s.subset(func(i int) bool {
		return !s.before(i, fromSec, fromNS) && s.before(i, toSec, toNS)
	}))
}

// Merge combines several datasets into one, their posts concatenated in
// argument order. Ground-truth maps are merged; conflicting labels for the
// same user are an error, never a silent last-dataset-wins overwrite. Every
// conflicting user is collected before failing, and the error names them
// in sorted order with both datasets involved — so one merge attempt
// diagnoses all the label damage, and the message is deterministic
// regardless of map iteration order.
func Merge(name string, datasets ...*Dataset) (*Dataset, error) {
	out := &Dataset{Name: name, GroundTruth: make(map[string]string)}
	labelledBy := make(map[string]string) // user -> name of the dataset that labelled them
	var conflicts []string
	conflictSeen := make(map[string]bool)
	index := make(map[string]int32)
	var ids []string
	var userOf []int32
	var when []int64
	var nanoAt, nanoNS []int32
	for _, d := range datasets {
		s := d.Index()
		remap := make([]int32, len(s.ids))
		for u, id := range s.ids {
			g, ok := index[id]
			if !ok {
				g = int32(len(ids))
				index[id] = g
				ids = append(ids, id)
			}
			remap[u] = g
		}
		base := int32(len(userOf))
		for _, u := range s.userOf {
			userOf = append(userOf, remap[u])
		}
		when = append(when, s.when...)
		for j, at := range s.nanoAt {
			nanoAt = append(nanoAt, base+at)
			nanoNS = append(nanoNS, s.nanoNS[j])
		}
		for u, r := range d.GroundTruth {
			if prev, ok := out.GroundTruth[u]; ok && prev != r {
				if !conflictSeen[u] {
					conflictSeen[u] = true
					conflicts = append(conflicts, fmt.Sprintf("user %q labelled %q (dataset %q) and %q (dataset %q)",
						u, prev, labelledBy[u], r, d.Name))
				}
				continue
			}
			out.GroundTruth[u] = r
			labelledBy[u] = d.Name
		}
	}
	if len(conflicts) > 0 {
		sort.Strings(conflicts)
		const show = 5
		listed := conflicts
		suffix := ""
		if len(listed) > show {
			listed = listed[:show]
			suffix = fmt.Sprintf("; and %d more", len(conflicts)-show)
		}
		return nil, fmt.Errorf("trace: merge %q: %d conflicting ground-truth label(s): %s%s",
			name, len(conflicts), strings.Join(listed, "; "), suffix)
	}
	if len(out.GroundTruth) == 0 {
		out.GroundTruth = nil
	}
	out.s = newStore(ids, userOf, when, nanoAt, nanoNS)
	return out, nil
}

// SortedByTime returns the dataset with its posts in chronological order
// (stable, so same-instant posts keep their relative order) and a copy of
// its ground truth. An already sorted dataset shares its store.
func (d *Dataset) SortedByTime() *Dataset {
	s := d.Index()
	if s.sortedByTime {
		return d.derive(s)
	}
	order := make([]int32, len(s.when))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := int(order[x]), int(order[y])
		return s.before(i, s.when[j], s.nano(j))
	})
	return d.derive(s.permute(order))
}

// csvHeader is the column layout used by WriteCSV and IngestCSV.
var csvHeader = []string{"user_id", "time_rfc3339"}

// WriteCSV writes the posts as CSV with a header row. Ground truth is not
// part of the CSV format. Rows are assembled in a reused byte buffer — the
// timestamp field never needs quoting and the user-ID field is quoted only
// when it contains a CSV metacharacter, so the common row costs zero
// allocations. The byte output is identical to encoding/csv's.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 64)
	buf = append(buf, csvHeader[0]...)
	buf = append(buf, ',')
	buf = append(buf, csvHeader[1]...)
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return fmt.Errorf("trace: write CSV header: %w", err)
	}
	s := d.Index()
	c := nanoCursor{at: s.nanoAt, ns: s.nanoNS}
	for i, u := range s.userOf {
		buf = appendCSVField(buf[:0], s.ids[u])
		buf = append(buf, ',')
		buf = appendRFC3339(buf, s.when[i], c.next(i))
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("trace: write CSV row: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush CSV: %w", err)
	}
	return nil
}

// appendCSVField appends a CSV field, quoting it exactly when encoding/csv
// would (field contains a quote, comma, CR, or LF, or begins with a space).
func appendCSVField(buf []byte, field string) []byte {
	if !csvFieldNeedsQuotes(field) {
		return append(buf, field...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(field); i++ {
		if c := field[i]; c == '"' {
			buf = append(buf, '"', '"')
		} else {
			// CR and LF pass through unchanged, matching csv.Writer with
			// UseCRLF off.
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// csvFieldNeedsQuotes mirrors encoding/csv's unexported fieldNeedsQuotes
// for the default (comma, non-CRLF) writer: quote on comma, quote, CR, LF,
// a leading Unicode space, or the literal field `\.`.
func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	if strings.ContainsAny(field, `",`) || strings.ContainsAny(field, "\r\n") {
		return true
	}
	r1, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r1)
}

// DefaultQuarantineSample is how many quarantined rows a lenient read keeps
// verbatim for diagnosis when IngestOptions.SampleCap is zero.
const DefaultQuarantineSample = 10

// QuarantinedRow describes one malformed row a lenient read skipped.
type QuarantinedRow struct {
	// Line is the 1-based record number in the file (the header is record
	// 1; for files without quoted newlines this is the line number).
	Line int `json:"line"`
	// Field names what was malformed: "record" for CSV-level damage
	// (quoting, field count), or the column name for a bad value.
	Field string `json:"field"`
	// Reason is the parse error, verbatim.
	Reason string `json:"reason"`
	// Raw is the offending value (truncated), empty when the row never
	// parsed into fields.
	Raw string `json:"raw,omitempty"`
}

// QuarantineReport is the structured outcome of a lenient read: how many
// rows were skipped and a capped sample of them. A nil report (strict mode)
// and an empty report (lenient, clean file) both mean nothing was skipped.
type QuarantineReport struct {
	// BadRows is the exact number of quarantined rows.
	BadRows int `json:"bad_rows"`
	// Rows is the kept sample, in file order, capped at SampleCap.
	Rows []QuarantinedRow `json:"rows,omitempty"`
}

// Empty reports whether nothing was quarantined.
func (q *QuarantineReport) Empty() bool { return q == nil || q.BadRows == 0 }

// String renders a one-line summary.
func (q *QuarantineReport) String() string {
	if q.Empty() {
		return "0 rows quarantined"
	}
	return fmt.Sprintf("%d row(s) quarantined (first: line %d, %s: %s)",
		q.BadRows, q.Rows[0].Line, q.Rows[0].Field, q.Rows[0].Reason)
}

// BadRowBudgetError aborts a lenient read whose quarantine outgrew the
// configured budget: a file this dirty is more likely the wrong file than a
// damaged one, and silently skipping most of it would fabricate a dataset.
type BadRowBudgetError struct {
	// Budget is the configured MaxBadRows.
	Budget int
	// Report is the quarantine state at abort time (Budget+1 bad rows).
	Report *QuarantineReport
}

// Error implements the error interface.
func (e *BadRowBudgetError) Error() string {
	return fmt.Sprintf("trace: bad-row budget exhausted: %s, budget %d", e.Report, e.Budget)
}

// sampleCap resolves SampleCap's default.
func (opts *IngestOptions) sampleCap() int {
	if opts.SampleCap <= 0 {
		return DefaultQuarantineSample
	}
	return opts.SampleCap
}

// quarantine records one bad row, enforcing the sample cap and the budget.
// It returns the budget error once the count passes MaxBadRows.
func (opts *IngestOptions) quarantine(q *QuarantineReport, row QuarantinedRow) error {
	q.BadRows++
	if len(q.Rows) < opts.sampleCap() {
		const rawCap = 80
		if len(row.Raw) > rawCap {
			row.Raw = row.Raw[:rawCap] + "..."
		}
		q.Rows = append(q.Rows, row)
	}
	if opts.MaxBadRows > 0 && q.BadRows > opts.MaxBadRows {
		return &BadRowBudgetError{Budget: opts.MaxBadRows, Report: q}
	}
	return nil
}

// readCSV is the sequential encoding/csv reader: IngestCSV's fallback for
// quoted input, and the reference the sharded reader is tested against.
// In strict mode the first malformed row aborts the read and the returned
// report is nil. In lenient mode malformed rows are skipped into the
// returned QuarantineReport up to the MaxBadRows budget. Well-formed rows
// parse identically in both modes. Workers and CollectCells are ignored.
func readCSV(name string, data []byte, opts IngestOptions) (*Dataset, *QuarantineReport, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.ReuseRecord = true
	header, err := cr.Read()
	if errors.Is(err, io.EOF) {
		return nil, nil, errors.New("trace: empty CSV")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("trace: read CSV header: %w", err)
	}
	if len(header) != len(csvHeader) || header[0] != csvHeader[0] || header[1] != csvHeader[1] {
		return nil, nil, fmt.Errorf("trace: unexpected CSV header %v", header)
	}
	var report *QuarantineReport
	if opts.Lenient {
		report = &QuarantineReport{}
	}
	index := make(map[string]int32)
	var ids []string
	var userOf []int32
	var when []int64
	var nanoAt, nanoNS []int32
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			if !opts.Lenient {
				return nil, nil, fmt.Errorf("trace: read CSV line %d: %w", line, err)
			}
			if qerr := opts.quarantine(report, QuarantinedRow{Line: line, Field: "record", Reason: err.Error()}); qerr != nil {
				return nil, report, qerr
			}
			continue
		}
		sec, ts, fast, err := parseStamp(rec[1])
		if err != nil {
			if !opts.Lenient {
				return nil, nil, fmt.Errorf("trace: parse time on line %d: %w", line, err)
			}
			// Clone the sample: rec aliases the reader's reusable record
			// buffer, and the report outlives this iteration.
			if qerr := opts.quarantine(report, QuarantinedRow{Line: line, Field: csvHeader[1], Reason: err.Error(), Raw: strings.Clone(rec[1])}); qerr != nil {
				return nil, report, qerr
			}
			continue
		}
		if !fast {
			sec = ts.Unix()
			if ns := ts.Nanosecond(); ns != 0 {
				nanoAt = append(nanoAt, int32(len(when)))
				nanoNS = append(nanoNS, int32(ns))
			}
		}
		// Intern the user ID: csv fields are substrings of a fresh per-row
		// string (safe to retain even with ReuseRecord), and the dictionary
		// keeps one string per distinct user rather than one per row.
		u, ok := index[rec[0]]
		if !ok {
			u = int32(len(ids))
			index[rec[0]] = u
			ids = append(ids, rec[0])
		}
		userOf = append(userOf, u)
		when = append(when, sec)
	}
	return &Dataset{Name: name, s: newStore(ids, userOf, when, nanoAt, nanoNS)}, report, nil
}

// ParseStamp parses an RFC3339 timestamp from a byte slice without
// allocating: fast reports that the instant is the whole second sec —
// exactly time.Unix(sec, 0).UTC() — while the fallback path returns the
// stdlib-parsed, UTC-normalized ts. Exported for the streaming daemon's
// zero-alloc NDJSON ingest decoder; accepted inputs and error behaviour
// match time.Parse(time.RFC3339, ...) exactly.
func ParseStamp(s []byte) (sec int64, ts time.Time, fast bool, err error) {
	return parseStamp(s)
}

// parseStamp is the RFC3339 scanner shared by the sequential reader
// (strings) and the sharded parallel reader (byte slices without a
// per-row string allocation). fast reports that the instant is the whole
// second sec — exactly time.Unix(sec, 0).UTC() — while the fallback path
// returns the stdlib-parsed, UTC-normalized ts.
func parseStamp[T ~string | ~[]byte](s T) (sec int64, ts time.Time, fast bool, err error) {
	if len(s) == 20 {
		if clock, ok := stampClock(s); ok {
			if day, ok := stampDate(s); ok {
				return day + clock, time.Time{}, true, nil
			}
		}
	}
	ts, err = time.Parse(time.RFC3339, string(s))
	if err != nil {
		return 0, time.Time{}, false, err
	}
	return 0, ts.UTC(), false, nil
}

// stampDate reads s[0:10] as a valid calendar date "YYYY-MM-DD" and
// returns its midnight in Unix seconds.
func stampDate[T ~string | ~[]byte](s T) (int64, bool) {
	if s[4] != '-' || s[7] != '-' {
		return 0, false
	}
	year, ok1 := atoi4(s, 0)
	month, ok2 := atoi2(s, 5)
	day, ok3 := atoi2(s, 8)
	if !ok1 || !ok2 || !ok3 || month < 1 || month > 12 || day < 1 || day > daysIn(year, month) {
		return 0, false
	}
	return unixFromCivil(year, month, day), true
}

// stampClock reads s[10:20] as "Thh:mm:ssZ" with every field in range and
// returns the seconds into the day.
func stampClock[T ~string | ~[]byte](s T) (int64, bool) {
	if s[10] != 'T' || s[13] != ':' || s[16] != ':' || s[19] != 'Z' {
		return 0, false
	}
	hour, ok1 := atoi2(s, 11)
	min, ok2 := atoi2(s, 14)
	sec, ok3 := atoi2(s, 17)
	if !ok1 || !ok2 || !ok3 || hour > 23 || min > 59 || sec > 59 {
		return 0, false
	}
	return int64(hour)*3600 + int64(min)*60 + int64(sec), true
}

func atoi2[T ~string | ~[]byte](s T, i int) (int, bool) {
	a, b := s[i]-'0', s[i+1]-'0'
	if a > 9 || b > 9 {
		return 0, false
	}
	return int(a)*10 + int(b), true
}

func atoi4[T ~string | ~[]byte](s T, i int) (int, bool) {
	hi, ok1 := atoi2(s, i)
	lo, ok2 := atoi2(s, i+2)
	return hi*100 + lo, ok1 && ok2
}

func daysIn(year, month int) int {
	switch month {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	}
	if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		return 29
	}
	return 28
}

// appendRFC3339 appends the instant (sec, nsec) — Unix seconds and the
// sub-second nanoseconds — as RFC3339 in UTC, producing the same bytes as
// time.Unix(sec, nsec).UTC().Format(time.RFC3339Nano): a fraction only
// when nsec is non-zero, so the CSV round trip keeps sub-second instants.
// Whole-second instants in years 0000-9999 take an integer fast path; the
// rest fall back to AppendFormat.
func appendRFC3339(buf []byte, sec int64, nsec int32) []byte {
	if nsec == 0 {
		days := sec / 86400
		rem := sec % 86400
		if rem < 0 {
			days--
			rem += 86400
		}
		year, month, day := civilFromDays(days)
		if year >= 0 && year <= 9999 {
			buf = appendDigits4(buf, int(year))
			buf = append(buf, '-')
			buf = appendDigits2(buf, month)
			buf = append(buf, '-')
			buf = appendDigits2(buf, day)
			buf = append(buf, 'T')
			buf = appendDigits2(buf, int(rem/3600))
			buf = append(buf, ':')
			buf = appendDigits2(buf, int(rem/60%60))
			buf = append(buf, ':')
			buf = appendDigits2(buf, int(rem%60))
			return append(buf, 'Z')
		}
	}
	return time.Unix(sec, int64(nsec)).UTC().AppendFormat(buf, time.RFC3339Nano)
}

func appendDigits2(buf []byte, v int) []byte {
	return append(buf, byte('0'+v/10), byte('0'+v%10))
}

func appendDigits4(buf []byte, v int) []byte {
	return append(appendDigits2(buf, v/100), byte('0'+v/10%10), byte('0'+v%10))
}

// civilFromDays is the inverse of unixFromCivil: Unix day number to
// proleptic-Gregorian (year, month, day), via Hinnant's civil-from-days.
func civilFromDays(z int64) (year int64, month, day int) {
	z += 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	day = int(doy - (153*mp+2)/5 + 1)
	month = int(mp) + 3
	if mp >= 10 {
		month = int(mp) - 9
	}
	year = yoe + era*400
	if month <= 2 {
		year++
	}
	return year, month, day
}

// unixFromCivil converts a proleptic-Gregorian UTC calendar date to Unix
// days*86400 using Howard Hinnant's days-from-civil algorithm.
func unixFromCivil(year, month, day int) int64 {
	y := int64(year)
	if month <= 2 {
		y--
	}
	var era int64
	if y >= 0 {
		era = y / 400
	} else {
		era = (y - 399) / 400
	}
	yoe := y - era*400 // [0, 399]
	var mp int64
	if month > 2 {
		mp = int64(month) - 3
	} else {
		mp = int64(month) + 9
	}
	doy := (153*mp+2)/5 + int64(day) - 1   // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	days := era*146097 + doe - 719468      // days since 1970-01-01
	return days * 86400
}

// Summary holds headline statistics of a dataset.
type Summary struct {
	Name      string
	Users     int
	Posts     int
	First     time.Time
	Last      time.Time
	MeanPosts float64
}

// Summarize computes a dataset's Summary.
func (d *Dataset) Summarize() Summary {
	s := Summary{Name: d.Name, Posts: d.NumPosts(), Users: d.Index().NumUsers()}
	if s.Users > 0 {
		s.MeanPosts = float64(s.Posts) / float64(s.Users)
	}
	if first, last, ok := d.TimeRange(); ok {
		s.First, s.Last = first, last
	}
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("%s: %d users, %d posts (%.1f posts/user), %s .. %s",
		s.Name, s.Users, s.Posts, s.MeanPosts,
		s.First.Format("2006-01-02"), s.Last.Format("2006-01-02"))
}
