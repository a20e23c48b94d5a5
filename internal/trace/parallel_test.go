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
