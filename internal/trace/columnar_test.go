package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// randomDataset builds a seeded random dataset with duplicate timestamps,
// out-of-order posts, and a skewed user distribution — the shapes the
// columnar index has to index correctly.
func randomDataset(seed int64, users, posts int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2017, time.March, 1, 0, 0, 0, 0, time.UTC)
	rows := make([]Post, 0, posts)
	for i := 0; i < posts; i++ {
		// Zipf-ish skew: low user indices post much more often.
		u := int(float64(users) * rng.Float64() * rng.Float64())
		if u >= users {
			u = users - 1
		}
		rows = append(rows, Post{
			UserID: fmt.Sprintf("user-%03d", u),
			Time:   base.Add(time.Duration(rng.Intn(90*24*3600)) * time.Second),
		})
	}
	d := NewDataset(fmt.Sprintf("rand-%d", seed), rows)
	d.GroundTruth = map[string]string{}
	for u := 0; u < users; u++ {
		if rng.Intn(2) == 0 {
			d.GroundTruth[fmt.Sprintf("user-%03d", u)] = []string{"de", "fr", "it"}[rng.Intn(3)]
		}
	}
	return d
}

// Legacy reference implementations — the pre-columnar method bodies, over
// the rows Post hands out — that the property tests compare the
// view-based methods against.

func legacyUsers(d *Dataset) []string {
	seen := make(map[string]bool)
	for _, p := range rows(d) {
		seen[p.UserID] = true
	}
	out := make([]string, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

func legacyByUser(d *Dataset) map[string][]Post {
	out := make(map[string][]Post)
	for _, p := range rows(d) {
		out[p.UserID] = append(out[p.UserID], p)
	}
	return out
}

func legacyPostCounts(d *Dataset) map[string]int {
	out := make(map[string]int)
	for _, p := range rows(d) {
		out[p.UserID]++
	}
	return out
}

func legacyWindow(d *Dataset, from, to time.Time) []Post {
	var out []Post
	for _, p := range rows(d) {
		if !p.Time.Before(from) && p.Time.Before(to) {
			out = append(out, p)
		}
	}
	return out
}

func samePosts(a, b []Post) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].UserID != b[i].UserID || !a[i].Time.Equal(b[i].Time) {
			return false
		}
	}
	return true
}

func TestColumnarViewsMatchLegacy(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 8; seed++ {
		d := randomDataset(seed, 40, 1500)
		if seed%2 == 0 {
			d = d.SortedByTime() // exercise both the sorted and unsorted index paths
		}

		if got, want := d.Users(), legacyUsers(d); len(got) != len(want) {
			t.Fatalf("seed %d: Users() len %d, want %d", seed, len(got), len(want))
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: Users()[%d] = %q, want %q", seed, i, got[i], want[i])
				}
			}
		}

		wantBy := legacyByUser(d)
		gotBy := d.ByUser()
		if len(gotBy) != len(wantBy) {
			t.Fatalf("seed %d: ByUser() has %d users, want %d", seed, len(gotBy), len(wantBy))
		}
		for u, want := range wantBy {
			if !samePosts(gotBy[u], want) {
				t.Fatalf("seed %d: ByUser()[%q] differs", seed, u)
			}
		}

		wantCounts := legacyPostCounts(d)
		for u, c := range d.PostCounts() {
			if wantCounts[u] != c {
				t.Fatalf("seed %d: PostCounts()[%q] = %d, want %d", seed, u, c, wantCounts[u])
			}
		}

		// FilterUsers evaluates the predicate per distinct user now; the kept
		// posts must match a per-post filter.
		keep := func(id string) bool { return id[len(id)-1]%2 == 0 }
		gotF := d.FilterUsers(keep)
		var wantF []Post
		for _, p := range rows(d) {
			if keep(p.UserID) {
				wantF = append(wantF, p)
			}
		}
		if !samePosts(rows(gotF), wantF) {
			t.Fatalf("seed %d: FilterUsers posts differ", seed)
		}
		for u := range gotF.GroundTruth {
			if !keep(u) {
				t.Fatalf("seed %d: FilterUsers kept ground truth for dropped user %q", seed, u)
			}
		}

		from := time.Date(2017, time.March, 20, 0, 0, 0, 0, time.UTC)
		to := time.Date(2017, time.April, 10, 0, 0, 0, 0, time.UTC)
		if got := d.Window(from, to); !samePosts(rows(got), legacyWindow(d, from, to)) {
			t.Fatalf("seed %d: Window posts differ from per-post scan", seed)
		}
	}
}

func TestStoreLayout(t *testing.T) {
	t.Parallel()
	d := sample()
	s := d.Index()
	if s.NumUsers() != 3 || s.NumPosts() != 5 {
		t.Fatalf("store has %d users / %d posts, want 3 / 5", s.NumUsers(), s.NumPosts())
	}
	// Dense indices are sorted by user ID.
	for u, want := range []string{"alice", "bob", "carol"} {
		if s.UserID(u) != want {
			t.Errorf("UserID(%d) = %q, want %q", u, s.UserID(u), want)
		}
		if got, ok := s.Lookup(want); !ok || got != u {
			t.Errorf("Lookup(%q) = %d,%v, want %d,true", want, got, ok, u)
		}
	}
	if _, ok := s.Lookup("mallory"); ok {
		t.Error("Lookup of unknown user succeeded")
	}
	if s.Count(0) != 3 || s.Count(1) != 1 || s.Count(2) != 1 {
		t.Errorf("counts = %d,%d,%d", s.Count(0), s.Count(1), s.Count(2))
	}
	if !s.SortedByTime() {
		t.Error("sample is chronological but SortedByTime() = false")
	}
	// CSR positions preserve dataset order within a user.
	alicePos := s.posts[s.offsets[0]:s.offsets[1]]
	want := []int32{0, 2, 4}
	for i := range want {
		if alicePos[i] != want[i] {
			t.Fatalf("positions of alice = %v, want %v", alicePos, want)
		}
	}
	times := s.AppendUserTimes(nil, 0)
	if len(times) != 3 || times[0] != at(9).Unix() || times[2] != at(13).Unix() {
		t.Errorf("AppendUserTimes(alice) = %v", times)
	}

	unsorted := NewDataset("", []Post{{UserID: "b", Time: at(12)}, {UserID: "a", Time: at(9)}})
	if unsorted.Index().SortedByTime() {
		t.Error("out-of-order dataset reported SortedByTime")
	}
}

// TestIndexImmutable: the store is built once, at construction; deriving
// a sorted dataset builds a new store and leaves the source's alone.
func TestIndexImmutable(t *testing.T) {
	t.Parallel()
	d := NewDataset("", []Post{{UserID: "b", Time: at(12)}, {UserID: "a", Time: at(9)}})
	s1 := d.Index()
	if d.Index() != s1 {
		t.Error("store not shared across calls")
	}
	sorted := d.SortedByTime()
	s2 := sorted.Index()
	if s2 == s1 {
		t.Fatal("SortedByTime of an unsorted dataset shares its store")
	}
	if got := s2.posts[s2.offsets[0]]; got != 0 { // "a" is first in the sorted copy
		t.Errorf("sorted store: positions of a = %v", got)
	}
	if got := s1.posts[s1.offsets[0]]; got != 1 { // and still second in the source
		t.Errorf("source store changed: positions of a = %v", got)
	}
	if sorted.SortedByTime().Index() != s2 {
		t.Error("SortedByTime of a sorted dataset rebuilt the store")
	}
	if (&Dataset{}).Index().NumUsers() != 0 || (&Dataset{}).NumPosts() != 0 {
		t.Error("zero Dataset is not empty")
	}
}

// TestByUserAppendSafe pins down that appending to one user's group cannot
// bleed into a neighbour's, even though the groups share a backing array.
func TestByUserAppendSafe(t *testing.T) {
	t.Parallel()
	d := sample()
	byUser := d.ByUser()
	grown := append(byUser["alice"], Post{UserID: "alice", Time: at(20)})
	_ = grown
	if byUser["bob"][0].UserID != "bob" {
		t.Error("append to alice's group clobbered bob's")
	}
}

// TestGroundTruthNotAliased is the regression test for the satellite fix:
// FilterPosts and Window used to share the ground-truth map
// with the source, so mutating a derived dataset corrupted the original.
func TestGroundTruthNotAliased(t *testing.T) {
	t.Parallel()
	derive := map[string]func(d *Dataset) *Dataset{
		"FilterPosts": func(d *Dataset) *Dataset {
			return d.FilterPosts(func(Post) bool { return true })
		},
		"Window": func(d *Dataset) *Dataset {
			return d.Window(at(0), at(23))
		},
		"WindowUnsorted": func(d *Dataset) *Dataset {
			posts := rows(d)
			posts[0], posts[1] = posts[1], posts[0]
			u := NewDataset(d.Name, posts)
			u.GroundTruth = d.GroundTruth
			return u.Window(at(0), at(23))
		},
	}
	for name, fn := range derive {
		d := sample()
		got := fn(d)
		got.GroundTruth["alice"] = "xx"
		got.GroundTruth["mallory"] = "yy"
		if d.GroundTruth["alice"] != "de" || len(d.GroundTruth) != 3 {
			t.Errorf("%s: derived dataset aliases source ground truth: %v", name, d.GroundTruth)
		}
	}
}

func TestBuilderMatchesAppendAndSort(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 4; seed++ {
		src := randomDataset(seed, 25, 800)
		b := NewBuilder(src.NumPosts())
		for _, p := range rows(src) {
			b.Add(b.User(p.UserID), p.Time.Unix())
		}
		if b.NumPosts() != src.NumPosts() {
			t.Fatalf("seed %d: builder has %d posts, want %d", seed, b.NumPosts(), src.NumPosts())
		}
		got := b.Dataset(src.Name, true)
		want := rows(src.SortedByTime())
		if got.Name != src.Name || !samePosts(rows(got), want) {
			t.Fatalf("seed %d: Builder dataset differs from NewDataset+SortedByTime", seed)
		}
		// Bit-compatible time.Time: materialized values must be == to the
		// time.Date-derived ones, not merely Equal.
		for i, p := range rows(got) {
			if p.Time != want[i].Time {
				t.Fatalf("seed %d: post %d time representation differs", seed, i)
			}
		}
	}

	unsorted := NewBuilder(0)
	u := unsorted.User("x")
	unsorted.User("interned-without-posts")
	unsorted.Add(u, at(12).Unix())
	unsorted.Add(u, at(9).Unix())
	got := unsorted.Dataset("x", false)
	if got.Post(0).Time != at(12) {
		t.Error("sortByTime=false should keep insertion order")
	}
	if users := got.Users(); len(users) != 1 || users[0] != "x" {
		t.Errorf("users = %v, want [x]: a user without posts is not part of the dataset", users)
	}
}

// parseRFC3339 is parseStamp as a time.Time, for comparison with
// time.Parse.
func parseRFC3339(s string) (time.Time, error) {
	sec, ts, fast, err := parseStamp(s)
	if err != nil {
		return time.Time{}, err
	}
	if fast {
		return time.Unix(sec, 0).UTC(), nil
	}
	return ts, nil
}

func TestParseRFC3339FastPath(t *testing.T) {
	t.Parallel()
	cases := []string{
		"2017-06-01T09:00:00Z",
		"1970-01-01T00:00:00Z",
		"1969-12-31T23:59:59Z", // pre-epoch
		"2000-02-29T12:00:00Z", // leap day in a %400 year
		"2016-02-29T23:59:59Z",
		"2100-01-01T00:00:00Z", // 2100 is not a leap year; Jan 1 still valid
		"0001-01-01T00:00:00Z",
		"9999-12-31T23:59:59Z",
		"2017-06-01T09:00:00+02:00", // offset: falls back to time.Parse
		"2017-06-01T09:00:00.5Z",    // fractional seconds: fallback
		"2017-06-01t09:00:00z",      // lowercase accepted by RFC3339
		"2017-13-01T00:00:00Z",      // bad month
		"2017-02-29T00:00:00Z",      // not a leap year
		"2100-02-29T00:00:00Z",      // century non-leap
		"2017-06-01T24:00:00Z",      // bad hour
		"2017-06-01T09:60:00Z",      // bad minute
		"2017-06-01T09:00:60Z",      // bad second (RFC3339 in Go rejects :60)
		"2017-06-0xT09:00:00Z",      // non-digit
		"2017-06-01 09:00:00Z",      // wrong separator
		"not-a-time",
		"",
	}
	for _, s := range cases {
		want, wantErr := time.Parse(time.RFC3339, s)
		got, gotErr := parseRFC3339(s)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%q: err = %v, time.Parse err = %v", s, gotErr, wantErr)
			continue
		}
		if gotErr == nil && got != want.UTC() {
			t.Errorf("%q: parsed %v, want %v", s, got, want.UTC())
		}
	}

	// Offset stamps that name an instant outside UTC years 0000–9999 are
	// errors, since WriteCSV could not write them back; the years' own
	// edges are kept.
	for s, inRange := range map[string]bool{
		"0000-01-01T00:30:00+01:00": false, // UTC year -1
		"9999-12-31T23:30:00-01:00": false, // UTC year 10000
		"0000-01-01T00:00:00-01:00": true,
		"9999-12-31T23:30:00+01:00": true,
	} {
		if _, err := parseRFC3339(s); (err == nil) != inRange {
			t.Errorf("%q: err = %v, want in range %v", s, err, inRange)
		}
	}

	// Randomized agreement with the stdlib over a wide range of instants.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		sec := rng.Int63n(4e10) - 1e9 // ~1938 .. ~3237
		s := time.Unix(sec, 0).UTC().Format(time.RFC3339)
		want, err := time.Parse(time.RFC3339, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseRFC3339(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got != want.UTC() {
			t.Fatalf("%q: parsed %v, want %v", s, got, want.UTC())
		}
	}
}

// TestWriteCSVMatchesEncodingCSV pins the hand-rolled CSV writer to
// encoding/csv byte for byte, including fields that need quoting.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	t.Parallel()
	ids := []string{
		"plain", "with,comma", `with"quote`, "with\nnewline", "with\rcr",
		" leadingspace", "\tleadingtab", " nbsp", `\.`, "", "trailing ",
		"ünïcode", `"`, `a,"b",c`,
	}
	var posts []Post
	for i, id := range ids {
		posts = append(posts, Post{UserID: id, Time: at(i % 24)})
	}
	d := NewDataset("quoting", posts)
	var got bytes.Buffer
	if err := d.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	if err := cw.Write([]string{"user_id", "time_rfc3339"}); err != nil {
		t.Fatal(err)
	}
	for _, p := range rows(d) {
		if err := cw.Write([]string{p.UserID, p.Time.UTC().Format(time.RFC3339)}); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if got.String() != want.String() {
		t.Fatalf("WriteCSV output differs from encoding/csv:\n got %q\nwant %q", got.String(), want.String())
	}
	// And it must round-trip through the reader.
	back, _, err := ingest("quoting", got.Bytes(), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !samePosts(rows(back), posts) {
		t.Fatal("quoted round trip differs")
	}
}

// TestAppendRFC3339MatchesFormat pins the integer fast-path formatter to
// the stdlib's RFC3339Nano across edge dates and a wide random sweep,
// nanoseconds and out-of-range years included (those take the fallback).
func TestAppendRFC3339MatchesFormat(t *testing.T) {
	t.Parallel()
	check := func(at time.Time) {
		t.Helper()
		got := string(appendRFC3339(nil, at.Unix(), int32(at.Nanosecond())))
		want := at.UTC().Format(time.RFC3339Nano)
		if got != want {
			t.Fatalf("appendRFC3339(%v) = %q, want %q", at, got, want)
		}
	}
	for _, at := range []time.Time{
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(2000, 2, 29, 12, 0, 0, 0, time.UTC),
		time.Date(2100, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(2017, 6, 1, 9, 0, 0, 500, time.UTC),                // nanos: fallback
		time.Date(2017, 6, 1, 9, 0, 0, 0, time.FixedZone("x", 7200)), // non-UTC loc
	} {
		check(at)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		check(time.Unix(rng.Int63n(4e10)-1e9, 0))
	}
}

func TestReadCSVInterning(t *testing.T) {
	t.Parallel()
	d := randomDataset(3, 10, 500)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := ingest("interned", buf.Bytes(), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !samePosts(rows(got), rows(d)) {
		t.Fatal("CSV round trip differs")
	}
	// Every post of a user shares one user-ID string.
	first := make(map[string]*byte)
	for _, p := range rows(got) {
		data := unsafe.StringData(p.UserID)
		if prev, ok := first[p.UserID]; !ok {
			first[p.UserID] = data
		} else if prev != data {
			t.Fatalf("user %q not interned", p.UserID)
		}
	}
}
