package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// rows materializes a dataset's posts through the Post accessor (nil for
// an empty dataset) — the test suites' view of the row definition.
func rows(d *Dataset) []Post {
	n := d.NumPosts()
	if n == 0 {
		return nil
	}
	out := make([]Post, n)
	for i := range out {
		out[i] = d.Post(i)
	}
	return out
}

// The row definition of a dataset: every method of the columnar Dataset,
// restated over a plain []Post. The columnar implementations must agree
// with these on every input.

func refFilter(posts []Post, keep func(Post) bool) []Post {
	var out []Post
	for _, p := range posts {
		if keep(p) {
			out = append(out, p)
		}
	}
	return out
}

func refFilterMinPosts(posts []Post, min int) []Post {
	counts := make(map[string]int)
	for _, p := range posts {
		counts[p.UserID]++
	}
	return refFilter(posts, func(p Post) bool { return counts[p.UserID] >= min })
}

func refWindow(posts []Post, from, to time.Time) []Post {
	return refFilter(posts, func(p Post) bool { return !p.Time.Before(from) && p.Time.Before(to) })
}

func refSorted(posts []Post) []Post {
	out := append([]Post(nil), posts...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

func refTimeRange(posts []Post) (first, last time.Time, ok bool) {
	if len(posts) == 0 {
		return time.Time{}, time.Time{}, false
	}
	first, last = posts[0].Time, posts[0].Time
	for _, p := range posts[1:] {
		if p.Time.Before(first) {
			first = p.Time
		}
		if p.Time.After(last) {
			last = p.Time
		}
	}
	return first, last, true
}

func refSummary(name string, posts []Post) Summary {
	users := make(map[string]bool)
	for _, p := range posts {
		users[p.UserID] = true
	}
	s := Summary{Name: name, Users: len(users), Posts: len(posts)}
	if s.Users > 0 {
		s.MeanPosts = float64(s.Posts) / float64(s.Users)
	}
	if first, last, ok := refTimeRange(posts); ok {
		s.First, s.Last = first, last
	}
	return s
}

// refWholeSeconds is what the ingest head carries: each instant floored
// to its second.
func refWholeSeconds(posts []Post) []Post {
	out := make([]Post, len(posts))
	for i, p := range posts {
		out[i] = Post{UserID: p.UserID, Time: time.Unix(p.Time.Unix(), 0).UTC()}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// sameRows fails unless got and want hold the same posts in the same order,
// with time.Time values identical (==), not merely Equal.
func sameRows(t *testing.T, what string, got, want []Post) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d posts, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: post %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// checkAgainstRows checks every columnar Dataset operation on posts
// against its row definition. posts must hold canonical UTC times
// (time.Unix(sec, ns).UTC()) in years 0000-9999.
func checkAgainstRows(t *testing.T, posts []Post) {
	t.Helper()
	if len(posts) == 0 {
		posts = nil
	}
	d := NewDataset("ref", posts)
	sameRows(t, "NewDataset → Post", rows(d), posts)

	keepUser := func(id string) bool { return len(id)%2 == 0 }
	sameRows(t, "FilterUsers", rows(d.FilterUsers(keepUser)),
		refFilter(posts, func(p Post) bool { return keepUser(p.UserID) }))
	keepPost := func(p Post) bool { return p.Time.Unix()%2 == 0 || p.Time.Nanosecond() != 0 }
	sameRows(t, "FilterPosts", rows(d.FilterPosts(keepPost)), refFilter(posts, keepPost))
	for _, min := range []int{1, 2, 3} {
		sameRows(t, fmt.Sprintf("FilterMinPosts(%d)", min), rows(d.FilterMinPosts(min)), refFilterMinPosts(posts, min))
	}

	sorted := refSorted(posts)
	sameRows(t, "SortedByTime", rows(d.SortedByTime()), sorted)
	sameRows(t, "SortedByTime source", rows(d), posts)

	// Windows bounded by post instants (hitting equal instants and
	// sub-second boundaries exactly) and by the empty range, over the
	// unsorted and the sorted store.
	bounds := []time.Time{{}, time.Unix(0, 0).UTC()}
	for i, p := range posts {
		if i%3 == 0 {
			bounds = append(bounds, p.Time, p.Time.Add(time.Nanosecond))
		}
	}
	for _, src := range []*Dataset{d, d.SortedByTime()} {
		srcRows := rows(src)
		for i, from := range bounds {
			to := bounds[(i*7+1)%len(bounds)]
			sameRows(t, fmt.Sprintf("Window(%v, %v)", from, to), rows(src.Window(from, to)), refWindow(srcRows, from, to))
		}
	}

	first, last, ok := d.TimeRange()
	wantFirst, wantLast, wantOK := refTimeRange(posts)
	if ok != wantOK || first != wantFirst || last != wantLast {
		t.Fatalf("TimeRange = %v..%v %v, want %v..%v %v", first, last, ok, wantFirst, wantLast, wantOK)
	}
	if got, want := d.Summarize(), refSummary("ref", posts); got != want {
		t.Fatalf("Summarize = %+v, want %+v", got, want)
	}

	half := len(posts) / 2
	a, b := NewDataset("a", posts[:half]), NewDataset("b", posts[half:])
	merged, err := Merge("ref", a, b)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "Merge", rows(merged), posts)
	if !bytes.Equal(encodeSnapshot(t, merged), encodeSnapshot(t, d)) {
		t.Fatal("Merge of the halves encodes differently from NewDataset of the whole")
	}

	var csv bytes.Buffer
	if err := d.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		res, err := IngestCSV("ref", csv.Bytes(), IngestOptions{Workers: workers})
		if err != nil {
			t.Fatalf("IngestCSV of WriteCSV output: %v\n%s", err, csv.Bytes())
		}
		sameRows(t, "WriteCSV → IngestCSV", rows(res.Dataset), posts)
	}

	raw := encodeSnapshot(t, d)
	back, err := ReadSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "WriteSnapshot → ReadSnapshotBytes", rows(back), posts)
	if !bytes.Equal(encodeSnapshot(t, back), raw) {
		t.Fatal("snapshot re-encoding differs")
	}

	// The head folds its tails into the base's columns: the result is the
	// dataset of the base posts followed by the appended ones in arrival
	// order (appends carry whole seconds).
	h := NewShardedHead("ref", NewDataset("ref", posts[:half]), 4)
	arrived := append([]Post(nil), posts[:half]...)
	for i, p := range posts[half:] {
		if err := h.Append(p.UserID, p.Time.Unix()); err != nil {
			t.Fatal(err)
		}
		arrived = append(arrived, refWholeSeconds([]Post{p})...)
		if i == len(posts[half:])/2 {
			h.Compact()
		}
	}
	want := NewDataset("ref", arrived)
	got := h.Compact()
	sameRows(t, "ShardedHead.Compact", rows(got), rows(want))
	if !bytes.Equal(encodeSnapshot(t, got), encodeSnapshot(t, want)) {
		t.Fatal("ShardedHead.Compact encodes differently from NewDataset over the arrival order")
	}
	sameStore(t, want.Index(), got.Index())
}

// Instants the fuzz decoder maps into: 0000-01-01T00:00:00Z through
// 9999-12-31T23:59:59Z, the years RFC3339 can carry.
const (
	minRefSec = -62167219200
	maxRefSec = 253402300799
)

var refUsers = []string{"alice", "bob", "carol", "d,q", "", " sp"}

// decodeRefPosts turns fuzz bytes into posts: 13 bytes a post — a user
// selector, 8 bytes of seconds folded into [minRefSec, maxRefSec], and 4
// bytes that give nanoseconds about half of the time.
func decodeRefPosts(data []byte) []Post {
	var posts []Post
	for len(data) >= 13 {
		user := refUsers[int(data[0])%len(refUsers)]
		sec := minRefSec + int64(binary.LittleEndian.Uint64(data[1:9])%uint64(maxRefSec-minRefSec+1))
		ns := int64(binary.LittleEndian.Uint32(data[9:13]) % 2e9)
		if ns >= 1e9 {
			ns = 0
		}
		posts = append(posts, Post{UserID: user, Time: time.Unix(sec, ns).UTC()})
		data = data[13:]
	}
	return posts
}

// encodeRefPosts is decodeRefPosts' inverse, for seeding.
func encodeRefPosts(posts []Post) []byte {
	var out []byte
	for _, p := range posts {
		u := 0
		for i, id := range refUsers {
			if id == p.UserID {
				u = i
			}
		}
		out = append(out, byte(u))
		out = binary.LittleEndian.AppendUint64(out, uint64(p.Time.Unix()-minRefSec))
		out = binary.LittleEndian.AppendUint32(out, uint32(p.Time.Nanosecond()))
	}
	return out
}

// refCases are the shapes the columnar store has to get right: sub-second
// instants, negative epochs, unsorted rows, equal instants (whole and
// sub-second), and the empty dataset.
func refCases() map[string][]Post {
	at := func(sec, ns int64) time.Time { return time.Unix(sec, ns).UTC() }
	return map[string][]Post{
		"empty": nil,
		"subsecond": {
			{"alice", at(1488369600, 250000000)}, {"bob", at(1488369600, 0)},
			{"alice", at(1488369600, 999999999)}, {"carol", at(1488369601, 1)},
		},
		"negative": {
			{"bob", at(-1, 500000000)}, {"alice", at(-86400*365*70, 0)},
			{"bob", at(minRefSec, 0)}, {"carol", at(-1, 0)},
		},
		"unsorted": {
			{"carol", at(1500000000, 0)}, {"alice", at(1400000000, 0)},
			{"d,q", at(1600000000, 0)}, {"alice", at(1300000000, 0)}, {" sp", at(maxRefSec, 0)},
		},
		"equal": {
			{"bob", at(1488369600, 0)}, {"alice", at(1488369600, 0)}, {"bob", at(1488369600, 0)},
			{"", at(1488369600, 7)}, {"alice", at(1488369600, 7)}, {"carol", at(1488369599, 0)},
		},
	}
}

// TestDatasetMatchesRowDefinition checks the columnar Dataset against the
// row definition on the hand-picked shapes and on seeded random traces.
func TestDatasetMatchesRowDefinition(t *testing.T) {
	t.Parallel()
	for name, posts := range refCases() {
		t.Run(name, func(t *testing.T) { checkAgainstRows(t, posts) })
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 13*(50+rng.Intn(200)))
		rng.Read(buf)
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) { checkAgainstRows(t, decodeRefPosts(buf)) })
	}
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("dataset-%d", seed), func(t *testing.T) { checkAgainstRows(t, rows(randomDataset(seed, 20, 300))) })
	}
}

// FuzzDatasetMatchesRowDefinition runs the same checks on fuzzed traces.
func FuzzDatasetMatchesRowDefinition(f *testing.F) {
	for _, posts := range refCases() {
		f.Add(encodeRefPosts(posts))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 13*400 {
			return
		}
		posts := decodeRefPosts(data)
		checkAgainstRows(t, posts)
		if !reflect.DeepEqual(decodeRefPosts(encodeRefPosts(posts)), posts) {
			t.Fatal("fuzz encoding does not round-trip")
		}
	})
}
