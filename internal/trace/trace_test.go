package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func at(h int) time.Time {
	return time.Date(2017, time.June, 1, h, 0, 0, 0, time.UTC)
}

func samplePosts() []Post {
	return []Post{
		{UserID: "alice", Time: at(9)},
		{UserID: "bob", Time: at(10)},
		{UserID: "alice", Time: at(11)},
		{UserID: "carol", Time: at(12)},
		{UserID: "alice", Time: at(13)},
	}
}

func sample() *Dataset {
	d := NewDataset("sample", samplePosts())
	d.GroundTruth = map[string]string{"alice": "de", "bob": "fr", "carol": "de"}
	return d
}

func TestUsersAndCounts(t *testing.T) {
	t.Parallel()
	d := sample()
	users := d.Users()
	want := []string{"alice", "bob", "carol"}
	if len(users) != len(want) {
		t.Fatalf("Users() = %v, want %v", users, want)
	}
	for i := range want {
		if users[i] != want[i] {
			t.Errorf("Users()[%d] = %q, want %q", i, users[i], want[i])
		}
	}
	counts := d.PostCounts()
	if counts["alice"] != 3 || counts["bob"] != 1 || counts["carol"] != 1 {
		t.Errorf("PostCounts() = %v", counts)
	}
	if d.NumPosts() != 5 {
		t.Errorf("NumPosts() = %d, want 5", d.NumPosts())
	}
}

func TestByUser(t *testing.T) {
	t.Parallel()
	d := sample()
	byUser := d.ByUser()
	if len(byUser["alice"]) != 3 {
		t.Errorf("alice has %d posts, want 3", len(byUser["alice"]))
	}
	if byUser["alice"][0].Time != at(9) {
		t.Error("post order not preserved")
	}
}

func TestTimeRange(t *testing.T) {
	t.Parallel()
	d := sample()
	first, last, ok := d.TimeRange()
	if !ok {
		t.Fatal("TimeRange on non-empty dataset not ok")
	}
	if first != at(9) || last != at(13) {
		t.Errorf("TimeRange = %v..%v", first, last)
	}
	empty := &Dataset{}
	if _, _, ok := empty.TimeRange(); ok {
		t.Error("TimeRange on empty dataset should not be ok")
	}
}

func TestFilterMinPosts(t *testing.T) {
	t.Parallel()
	d := sample()
	filtered := d.FilterMinPosts(2)
	if got := filtered.Users(); len(got) != 1 || got[0] != "alice" {
		t.Errorf("FilterMinPosts(2) users = %v, want [alice]", got)
	}
	if len(filtered.GroundTruth) != 1 {
		t.Errorf("ground truth not pruned: %v", filtered.GroundTruth)
	}
	// Original untouched.
	if d.NumPosts() != 5 {
		t.Error("FilterMinPosts mutated the original")
	}
}

func TestWindow(t *testing.T) {
	t.Parallel()
	d := sample()
	w := d.Window(at(10), at(13))
	if w.NumPosts() != 3 {
		t.Errorf("Window has %d posts, want 3 (half-open)", w.NumPosts())
	}
	for _, p := range rows(w) {
		if p.Time.Before(at(10)) || !p.Time.Before(at(13)) {
			t.Errorf("post at %v outside window", p.Time)
		}
	}
}

func TestMerge(t *testing.T) {
	t.Parallel()
	a := NewDataset("a", []Post{{UserID: "u1", Time: at(1)}})
	a.GroundTruth = map[string]string{"u1": "de"}
	b := NewDataset("b", []Post{{UserID: "u2", Time: at(2)}})
	b.GroundTruth = map[string]string{"u2": "fr"}
	m, err := Merge("ab", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPosts() != 2 || len(m.GroundTruth) != 2 {
		t.Errorf("merge result: %d posts, %v", m.NumPosts(), m.GroundTruth)
	}

	conflict := &Dataset{Name: "c", GroundTruth: map[string]string{"u1": "it"}}
	if _, err := Merge("bad", a, conflict); err == nil {
		t.Error("conflicting ground truth should fail")
	}
}

func TestSortByTime(t *testing.T) {
	t.Parallel()
	d := NewDataset("", []Post{
		{UserID: "b", Time: at(12)},
		{UserID: "a", Time: at(9)},
		{UserID: "c", Time: at(12)},
	})
	sorted := d.SortedByTime()
	if sorted.Post(0).UserID != "a" {
		t.Error("not sorted")
	}
	if sorted.Post(1).UserID != "b" || sorted.Post(2).UserID != "c" {
		t.Error("sort not stable for equal timestamps")
	}
	if d.Post(0).UserID != "b" {
		t.Error("SortedByTime reordered the source dataset")
	}
}

// TestJSONRoundTrip pins Post's JSON encoding, which the crawler
// checkpoint persists as a []Post.
func TestJSONRoundTrip(t *testing.T) {
	t.Parallel()
	posts := samplePosts()
	data, err := json.Marshal(posts)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"user_id":"alice","time":"2017-06-01T09:00:00Z"}`; !strings.HasPrefix(string(data), "["+want) {
		t.Errorf("encoding = %s, want it to start with [%s", data, want)
	}
	var got []Post
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(posts) {
		t.Fatalf("round trip kept %d posts, want %d", len(got), len(posts))
	}
	for i := range posts {
		if got[i].UserID != posts[i].UserID || !got[i].Time.Equal(posts[i].Time) {
			t.Errorf("post %d differs: %+v vs %+v", i, got[i], posts[i])
		}
	}
	if err := json.Unmarshal([]byte("[{broken"), &got); err == nil {
		t.Error("broken JSON should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	t.Parallel()
	d := sample()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := ingest("sample", buf.Bytes(), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPosts() != d.NumPosts() {
		t.Errorf("CSV round trip: %d posts, want %d", got.NumPosts(), d.NumPosts())
	}
	for i := 0; i < d.NumPosts(); i++ {
		if !got.Post(i).Time.Equal(d.Post(i).Time) || got.Post(i).UserID != d.Post(i).UserID {
			t.Errorf("post %d differs: %+v vs %+v", i, got.Post(i), d.Post(i))
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ what, in string }{
		{"empty CSV", ""},
		{"bad header", "wrong,header\na,b\n"},
		{"bad timestamp", "user_id,time_rfc3339\nu1,notatime\n"},
	} {
		if _, _, err := ingest("x", []byte(tc.in), IngestOptions{}); err == nil {
			t.Errorf("%s should fail", tc.what)
		}
	}
}

// TestDerivedIndependent: a derived dataset (here SortedByTime of an
// already sorted one, which shares the immutable store) owns its ground
// truth, and the rows handed out by Post are copies.
func TestDerivedIndependent(t *testing.T) {
	t.Parallel()
	d := sample()
	c := d.SortedByTime()
	p := c.Post(0)
	p.UserID = "mallory"
	c.GroundTruth["alice"] = "xx"
	if d.Post(0).UserID != "alice" || c.Post(0).UserID != "alice" || d.GroundTruth["alice"] != "de" {
		t.Error("derived dataset shares state with original")
	}
}

func TestSummarize(t *testing.T) {
	t.Parallel()
	d := sample()
	s := d.Summarize()
	if s.Users != 3 || s.Posts != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.MeanPosts < 1.6 || s.MeanPosts > 1.7 {
		t.Errorf("MeanPosts = %g", s.MeanPosts)
	}
	if !strings.Contains(s.String(), "3 users") {
		t.Errorf("Summary.String() = %q", s.String())
	}
	empty := (&Dataset{Name: "e"}).Summarize()
	if empty.Users != 0 || empty.MeanPosts != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}
