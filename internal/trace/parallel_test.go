package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// parallelWorkerCounts are the shard counts the equivalence suite sweeps —
// 1 (inline), small primes, and more workers than most generated inputs
// have lines.
var parallelWorkerCounts = []int{1, 2, 3, 7, 16}

// genEquivCSV produces a seeded CSV exercising every shape the reader
// distinguishes: clean rows, fractional seconds, offset timezones, and —
// when dirty — bad timestamps (short and >80 bytes for the truncation
// path), wrong field counts, CRLF endings, interior \r bytes, blank
// lines, and unterminated final lines.
func genEquivCSV(r *rand.Rand, dirty bool) []byte {
	var b bytes.Buffer
	eol := func() {
		if r.Intn(6) == 0 {
			b.WriteString("\r\n")
		} else {
			b.WriteString("\n")
		}
	}
	if r.Intn(4) == 0 {
		b.WriteString("\n") // blank line before the header
	}
	b.WriteString("user_id,time_rfc3339")
	eol()
	n := r.Intn(120)
	for i := 0; i < n; i++ {
		user := fmt.Sprintf("u%03d", r.Intn(25))
		mode := r.Intn(20)
		if !dirty && mode >= 14 && mode <= 17 {
			mode = 0
		}
		switch mode {
		case 12: // fractional seconds (slow parse path, nano preservation)
			fmt.Fprintf(&b, "%s,2021-03-04T05:06:07.%03dZ", user, r.Intn(1000))
		case 13: // offset timezone (slow parse path, UTC normalization)
			fmt.Fprintf(&b, "%s,2021-03-04T05:06:07+0%d:00", user, 1+r.Intn(9))
		case 14: // bad timestamp
			fmt.Fprintf(&b, "%s,not-a-time-%d", user, r.Intn(10))
		case 15: // long bad timestamp (sample truncation path)
			fmt.Fprintf(&b, "%s,%s", user, strings.Repeat("x", 80+r.Intn(40)))
		case 16: // missing field
			fmt.Fprintf(&b, "lonefield%d", r.Intn(10))
		case 17: // extra field
			fmt.Fprintf(&b, "%s,2021-01-01T00:00:00Z,extra", user)
		case 18: // blank line
		case 19: // interior \r in the user field (delegated line)
			fmt.Fprintf(&b, "%s\r,2021-03-04T05:06:07Z", user)
		default: // clean fixed-layout row, possibly invalid calendar date
			day := 1 + r.Intn(31)
			fmt.Fprintf(&b, "%s,2021-%02d-%02dT%02d:%02d:%02dZ",
				user, 1+r.Intn(12), day, r.Intn(24), r.Intn(60), r.Intn(60))
		}
		eol()
	}
	data := b.Bytes()
	if n > 0 && r.Intn(3) == 0 {
		data = bytes.TrimSuffix(data, []byte("\n")) // unterminated last line (may leave a bare \r)
	}
	return data
}

// sameIngestError asserts the parallel reader failed exactly like the
// sequential one: same message, and the same typed error underneath.
func sameIngestError(t *testing.T, seqErr, parErr error) {
	t.Helper()
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("error mismatch: sequential %v, parallel %v", seqErr, parErr)
	}
	if seqErr == nil {
		return
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("error text mismatch:\n seq: %s\n par: %s", seqErr, parErr)
	}
	var seqPE, parPE *csv.ParseError
	if errors.As(seqErr, &seqPE) {
		if !errors.As(parErr, &parPE) {
			t.Fatalf("sequential wraps *csv.ParseError, parallel does not: %v", parErr)
		}
		if *seqPE != *parPE {
			t.Fatalf("ParseError mismatch: seq %+v, par %+v", *seqPE, *parPE)
		}
	}
	var seqBudget, parBudget *BadRowBudgetError
	if errors.As(seqErr, &seqBudget) {
		if !errors.As(parErr, &parBudget) {
			t.Fatalf("sequential is *BadRowBudgetError, parallel is not: %v", parErr)
		}
		if seqBudget.Budget != parBudget.Budget || !reflect.DeepEqual(seqBudget.Report, parBudget.Report) {
			t.Fatalf("budget abort mismatch:\n seq: %+v\n par: %+v", seqBudget, parBudget)
		}
	}
}

// sameStore asserts two columnar stores hold identical columns, field by
// field (a nil and an empty column are the same column).
func sameStore(t *testing.T, want, got *Store) {
	t.Helper()
	if !slices.Equal(want.ids, got.ids) {
		t.Fatalf("store ids mismatch: want %v, got %v", want.ids, got.ids)
	}
	for _, c := range []struct {
		name      string
		want, got []int32
	}{
		{"userOf", want.userOf, got.userOf},
		{"nanoAt", want.nanoAt, got.nanoAt},
		{"nanoNS", want.nanoNS, got.nanoNS},
		{"posts", want.posts, got.posts},
		{"offsets", want.offsets, got.offsets},
	} {
		if !slices.Equal(c.want, c.got) {
			t.Fatalf("store %s mismatch: want %v, got %v", c.name, c.want, c.got)
		}
	}
	if !slices.Equal(want.when, got.when) {
		t.Fatalf("store when mismatch: want %v, got %v", want.when, got.when)
	}
	if want.sortedByTime != got.sortedByTime {
		t.Fatalf("store sortedByTime mismatch: want %v, got %v", want.sortedByTime, got.sortedByTime)
	}
}

// checkParallelEquivalence runs both readers on the same bytes and
// asserts every observable output matches.
func checkParallelEquivalence(t *testing.T, data []byte, opts IngestOptions, workers int) {
	t.Helper()
	seqDS, seqRep, seqErr := readCSV("equiv", data, opts)
	var parDS *Dataset
	var parRep *QuarantineReport
	opts.Workers = workers
	res, parErr := IngestCSV("equiv", data, opts)
	if res != nil {
		parDS, parRep = res.Dataset, res.Report
	}
	sameIngestError(t, seqErr, parErr)
	if !reflect.DeepEqual(seqRep, parRep) {
		t.Fatalf("quarantine report mismatch (workers=%d):\n seq: %+v\n par: %+v", workers, seqRep, parRep)
	}
	if (seqDS == nil) != (parDS == nil) {
		t.Fatalf("dataset nil-ness mismatch (workers=%d): seq %v, par %v", workers, seqDS, parDS)
	}
	if seqDS == nil {
		return
	}
	if seqDS.Name != parDS.Name {
		t.Fatalf("name mismatch: %q vs %q", seqDS.Name, parDS.Name)
	}
	if !reflect.DeepEqual(rows(seqDS), rows(parDS)) {
		t.Fatalf("posts mismatch (workers=%d):\n seq: %v\n par: %v", workers, rows(seqDS), rows(parDS))
	}
	if !reflect.DeepEqual(seqDS.GroundTruth, parDS.GroundTruth) {
		t.Fatalf("ground truth mismatch: %v vs %v", seqDS.GroundTruth, parDS.GroundTruth)
	}
	sameStore(t, seqDS.Index(), parDS.Index())
}

// TestParallelReadEquivalence is the tentpole property test: across
// seeds, corruption levels, strict/lenient modes, budgets and worker
// counts, the sharded reader is byte-identical to the sequential
// one.
func TestParallelReadEquivalence(t *testing.T) {
	t.Parallel()
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		data := genEquivCSV(r, seed%2 == 0)
		optsVariants := []IngestOptions{
			{},
			{Lenient: true},
			{Lenient: true, MaxBadRows: 1},
			{Lenient: true, MaxBadRows: 4, SampleCap: 2},
			{Lenient: true, MaxBadRows: 100},
		}
		for _, opts := range optsVariants {
			for _, workers := range parallelWorkerCounts {
				checkParallelEquivalence(t, data, opts, workers)
			}
		}
	}
}

// TestParallelReadEdgeCases pins the deterministic weird shapes: CRLF
// files, bare-\r lines, header-only files, unterminated lines, headers
// with the wrong shape, and quoted inputs (sequential fallback).
func TestParallelReadEdgeCases(t *testing.T) {
	t.Parallel()
	cases := []string{
		"",
		"\n",
		"\r\n",
		"user_id,time_rfc3339",
		"user_id,time_rfc3339\n",
		"user_id,time_rfc3339\r\n",
		"\n\nuser_id,time_rfc3339\n\n\nu1,2021-01-01T00:00:00Z\n",
		"user_id,time_rfc3339\nu1,2021-01-01T00:00:00Z",
		"user_id,time_rfc3339\nu1,2021-01-01T00:00:00Z\r",
		"user_id,time_rfc3339\r\nu1,2021-01-01T00:00:00Z\r\nu2,2021-01-01T00:00:01Z\r\n",
		"user_id,time_rfc3339\nu1,2021-01-01T00:00:00Z\n\r\nu2,2021-01-01T00:00:01Z\n",
		"user_id,time_rfc3339\nu\r1,2021-01-01T00:00:00Z\n",
		"user_id,time_rfc3339\nu1,2021-01-01T00:00:00Z\r\r\n",
		"user_id,time_rfc3339\nu1\n",
		"user_id,time_rfc3339\nu1,a,b\n",
		"user_id,time_rfc3339\nu1,bad-time\nu2,2021-01-01T00:00:00Z\n",
		"user_id,time_rfc3339\nu1,2021-02-30T00:00:00Z\n",
		"user_id,time_rfc3339\nu1,1969-12-31T23:59:59Z\n",
		"user_id,time_rfc3339\nu1,2021-01-01T00:00:00.5Z\nu1,2021-01-01T00:00:00Z\n",
		"wrong,header\nu1,2021-01-01T00:00:00Z\n",
		"user_id\n",
		"user_id,time_rfc3339,extra\n",
		",\n",
		"user_id,time_rfc3339\n\"u1\",2021-01-01T00:00:00Z\n",
		"user_id,time_rfc3339\nu1,\"2021-01-01T00:00:00Z\n",
		"user_id,time_rfc3339\n,2021-01-01T00:00:00Z\nu2,\n",
	}
	for i, data := range cases {
		for _, lenient := range []bool{false, true} {
			for _, workers := range parallelWorkerCounts {
				opts := IngestOptions{Lenient: lenient, MaxBadRows: 3}
				t.Run(fmt.Sprintf("case%02d/lenient=%v/w=%d", i, lenient, workers), func(t *testing.T) {
					checkParallelEquivalence(t, []byte(data), opts, workers)
				})
			}
		}
	}
}

// TestIngestQuotedFallback pins the sequential fallback: any input
// containing a quote parses via readCSV into the same dataset shape. It
// also pins IngestCSV's error contract on both paths: the result is nil on
// every error except a lenient bad-row budget abort, which carries the
// report.
func TestIngestQuotedFallback(t *testing.T) {
	t.Parallel()
	data := []byte("user_id,time_rfc3339\n\"u,1\",2021-01-01T00:00:00Z\nu2,2021-01-01T00:00:01Z\n")
	res, err := IngestCSV("quoted", data, IngestOptions{Workers: 8, CollectCells: true})
	if err != nil {
		t.Fatalf("IngestCSV: %v", err)
	}
	ds := res.Dataset
	if ds.Name != "quoted" || ds.NumPosts() != 2 || ds.Index().NumUsers() != 2 {
		t.Fatalf("quoted fallback dataset = %+v", ds.Summarize())
	}
	base := time.Date(2021, time.January, 1, 0, 0, 0, 0, time.UTC)
	for i, want := range []Post{{UserID: "u,1", Time: base}, {UserID: "u2", Time: base.Add(time.Second)}} {
		if got := ds.Post(i); got.UserID != want.UserID || !got.Time.Equal(want.Time) {
			t.Fatalf("post %d = %+v, want %+v", i, got, want)
		}
	}
	if res.Cells == nil || res.Cells.Store() != ds.Index() {
		t.Fatal("quoted fallback Cells does not wrap the dataset's store")
	}

	for _, user := range []string{"u2", `"u,2"`} {
		badHeader := "wrong,header\n" + user + ",2021-01-01T00:00:00Z\n"
		badRows := "user_id,time_rfc3339\n" + user + ",notatime\nu3,notatime\n"
		for _, tc := range []struct {
			name   string
			data   string
			opts   IngestOptions
			budget bool
		}{
			{"strict header", badHeader, IngestOptions{}, false},
			{"lenient header", badHeader, IngestOptions{Lenient: true}, false},
			{"strict row", badRows, IngestOptions{}, false},
			{"budget abort", badRows, IngestOptions{Lenient: true, MaxBadRows: 1}, true},
		} {
			tc.opts.Workers = 4
			res, err := IngestCSV("errors", []byte(tc.data), tc.opts)
			if err == nil {
				t.Fatalf("%s (user %s): no error", tc.name, user)
			}
			var budget *BadRowBudgetError
			if errors.As(err, &budget) != tc.budget {
				t.Fatalf("%s (user %s): err = %v, budget abort %v", tc.name, user, err, tc.budget)
			}
			if !tc.budget {
				if res != nil {
					t.Fatalf("%s (user %s): non-nil result %+v on error", tc.name, user, res)
				}
				continue
			}
			if res == nil || res.Dataset != nil || res.Report == nil || res.Report.BadRows != 2 {
				t.Fatalf("%s (user %s): budget abort result %+v, want the report alone", tc.name, user, res)
			}
		}
	}
}

// TestShardSplitInvariants pins the splitter contract directly: cuts are
// monotone, cover [start, len(data)], and interior cuts land after
// newlines.
func TestShardSplitInvariants(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(200)
		data := make([]byte, n)
		for i := range data {
			if r.Intn(5) == 0 {
				data[i] = '\n'
			} else {
				data[i] = byte('a' + r.Intn(26))
			}
		}
		start := 0
		if n > 0 {
			start = r.Intn(n)
		}
		workers := 1 + r.Intn(8)
		checkShardSplit(t, data, start, workers)
	}
}

// checkShardSplit asserts the shardSplit contract for one input.
func checkShardSplit(t *testing.T, data []byte, start, workers int) {
	t.Helper()
	cuts := shardSplit(data, start, workers)
	if len(cuts) != workers+1 {
		t.Fatalf("len(cuts) = %d, want %d", len(cuts), workers+1)
	}
	if cuts[0] != start || cuts[workers] != len(data) {
		t.Fatalf("cuts endpoints [%d, %d], want [%d, %d]", cuts[0], cuts[workers], start, len(data))
	}
	for k := 1; k <= workers; k++ {
		if cuts[k] < cuts[k-1] {
			t.Fatalf("cuts not monotone: %v", cuts)
		}
		if k < workers && cuts[k] != len(data) && cuts[k] > start && data[cuts[k]-1] != '\n' {
			t.Fatalf("interior cut %d at %d not after newline: %q", k, cuts[k], data)
		}
	}
}

// ingestOptsVariants are the strict, lenient and budget settings every
// equivalence case runs under.
var ingestOptsVariants = []IngestOptions{
	{},
	{Lenient: true},
	{Lenient: true, MaxBadRows: 1},
	{Lenient: true, MaxBadRows: 2, SampleCap: 1},
}

// TestIngestLinePathFallbacks pins every line the in-place path must hand
// back to the general handling, each next to a line that takes the in-place
// path, against readCSV at every worker count.
func TestIngestLinePathFallbacks(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"cr in user":              "u1,2021-03-04T05:06:07Z\nu\r1,2021-03-04T05:06:08Z\nu1\r,2021-03-04T05:06:09Z\n",
		"cr after stamp":          "u1,2021-03-04T05:06:07Z\nu2,2021-03-04T05:06:08Z\r\nu1,2021-03-04T05:06:09Z\n",
		"same prefix bad clock":   "u1,2021-03-04T05:06:07Z\nu2,2021-03-04T24:00:00Z\nu1,2021-03-04T05:06:09Z\n",
		"same prefix bad suffix":  "u1,2021-03-04T05:06:07Z\nu2,2021-03-04 05:06:08Z\nu3,2021-03-04T05:06:08+01:00\n",
		"feb 29 non-leap":         "u1,2021-02-28T23:59:59Z\nu2,2021-02-29T00:00:00Z\nu3,2021-03-01T00:00:00Z\n",
		"feb 29 leap":             "u1,2020-02-28T23:59:59Z\nu2,2020-02-29T00:00:00Z\nu3,1900-02-29T00:00:00Z\n",
		"day zero and month 13":   "u1,2021-01-01T00:00:00Z\nu2,2021-01-00T00:00:00Z\nu3,2021-13-01T00:00:00Z\n",
		"hour 24":                 "u1,2021-03-04T23:59:59Z\nu2,2021-03-04T24:00:00Z\n",
		"minute 60":               "u1,2021-03-04T05:59:00Z\nu2,2021-03-04T05:60:00Z\n",
		"second 60":               "u1,2021-03-04T05:06:59Z\nu2,2021-03-04T05:06:60Z\n",
		"19-byte stamp":           "u1,2021-03-04T05:06:07Z\nu2,2021-03-04T05:06:07\n",
		"21-byte stamp":           "u1,2021-03-04T05:06:07Z\nu2,2021-03-04T05:06:07.Z\nu3,2021-03-04T05:06:07.5Z\n",
		"non-digit fields":        "u1,2021-03-04T05:06:07Z\nu2,2021-0a-04T05:06:07Z\nu3,2021-03-04T05:0b:07Z\n",
		"unterminated last line":  "u1,2021-03-04T05:06:07Z\nu2,2021-03-04T05:06:08Z",
		"unterminated bad line":   "u1,2021-03-04T05:06:07Z\nu2,2021-03-04T05:06:6",
		"empty user":              ",2021-03-04T05:06:07Z\nu1,2021-03-04T05:06:08Z\n,2021-03-04T05:06:09Z",
		"comma in stamp position": "u1,2021-03-04T05:06:07Z\nu,2,2021-03-04T05:06:Z\nu,,2021-03-04T05:06:08Z\n",
		"day cache seed":          "u1,1970-01-01T00:00:01Z\nu2,\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00T00:00:00Z\n",
	}
	for name, body := range cases {
		data := []byte("user_id,time_rfc3339\n" + body)
		for _, opts := range ingestOptsVariants {
			for _, workers := range parallelWorkerCounts {
				t.Run(fmt.Sprintf("%s/lenient=%v/budget=%d/w=%d", name, opts.Lenient, opts.MaxBadRows, workers), func(t *testing.T) {
					checkParallelEquivalence(t, data, opts, workers)
				})
			}
		}
	}
}

// TestIngestColumnCompaction puts blank and bad lines on both sides of
// every shard cut, so every shard after the first parses into a window
// the merge must move down to close the gap.
func TestIngestColumnCompaction(t *testing.T) {
	t.Parallel()
	var b bytes.Buffer
	b.WriteString("user_id,time_rfc3339\n")
	for i := 0; i < 400; i++ {
		switch i % 5 {
		case 1:
			b.WriteString("\n")
		case 3:
			fmt.Fprintf(&b, "u%d,2021-03-04T05:06:%02dZ,extra\n", i%17, i%60)
		case 4:
			fmt.Fprintf(&b, "u%d,2021-02-29T05:06:%02dZ\n", i%17, i%60)
		default:
			fmt.Fprintf(&b, "u%d,2021-03-%02dT05:06:%02dZ\n", i%17, 1+i/20, i%60)
		}
	}
	data := b.Bytes()
	for _, workers := range parallelWorkerCounts {
		bodyStart, _, err := parseCSVHeader(data)
		if err != nil {
			t.Fatal(err)
		}
		cuts := shardSplit(data, bodyStart, workers)
		for k := 0; k < workers; k++ {
			seg := data[cuts[k]:cuts[k+1]]
			blank := bytes.HasPrefix(seg, []byte("\n")) || bytes.Contains(seg, []byte("\n\n"))
			if !blank || !bytes.Contains(seg, []byte(",extra")) {
				t.Fatalf("w=%d: shard %d lacks a blank or a bad line: %q", workers, k, seg)
			}
		}
		for _, opts := range append(ingestOptsVariants, IngestOptions{Lenient: true, MaxBadRows: 1000}) {
			checkParallelEquivalence(t, data, opts, workers)
		}
	}
}

// TestInternTable feeds distinct IDs under forced hashes, so every lookup
// collides and only the byte compare tells entries apart, and grows the
// table from 8 slots across several powers of two.
func TestInternTable(t *testing.T) {
	t.Parallel()
	tab := newInternTable(0)
	const n = 40 // 8 slots hold 4 entries; 40 entries need 128 slots
	var ids []string
	for i := 0; i < n; i++ {
		ids = append(ids, fmt.Sprintf("user-%d", i))
	}
	hashOf := func(i int) uint64 { return uint64(i%2) << 40 } // two hashes, each shared by 20 IDs
	for round := 0; round < 2; round++ {
		for i, id := range ids {
			if e := intern(tab, []byte(id), hashOf(i)); e != int32(i) {
				t.Fatalf("round %d: %q interned as %d, want %d", round, id, e, i)
			}
		}
	}
	if len(tab.entries) != n || len(tab.slots) != 128 {
		t.Fatalf("%d entries in %d slots, want %d in 128", len(tab.entries), len(tab.slots), n)
	}
	for i, e := range tab.entries {
		if e.id != ids[i] || e.hash != hashOf(i) {
			t.Fatalf("entry %d = %+v, want {%d %q}", i, e, hashOf(i), ids[i])
		}
	}
	// A string key and the real hash find the same entries.
	real := newInternTable(0)
	for i, id := range ids {
		if e := intern(real, id, hashUser([]byte(id))); e != int32(i) {
			t.Fatalf("%q interned as %d, want %d", id, e, i)
		}
	}
	for i, id := range ids {
		if e := intern(real, []byte(id), hashUser([]byte(id))); e != int32(i) {
			t.Fatalf("%q found as %d, want %d", id, e, i)
		}
	}
}
