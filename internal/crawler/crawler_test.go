package crawler

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"darkcrowd/internal/forum"
	"darkcrowd/internal/onion"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

var testNow = time.Date(2017, time.June, 15, 10, 0, 0, 0, time.UTC)

// buildForum creates a forum with an imported Italian crowd and the given
// server offset, returning the forum and the ground-truth trace.
func buildForum(t *testing.T, offset time.Duration, users int) (*forum.Forum, *trace.Dataset) {
	t.Helper()
	f := forum.New(forum.Config{
		Name:         "Scrape Target",
		ServerOffset: offset,
		PageSize:     10,
		Clock:        func() time.Time { return testNow },
	})
	region, err := tz.ByCode("it")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.GenerateCrowd(99, synth.CrowdConfig{
		Name:   "crowd",
		Groups: []synth.Group{{Region: region, Users: users, PostsPerUser: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ImportCrowd(ds, forum.ImportOptions{}); err != nil {
		t.Fatal(err)
	}
	return f, ds
}

func TestMeasureOffset(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name   string
		offset time.Duration
	}{
		{"utc server", 0},
		{"plus three hours", 3 * time.Hour},
		{"minus five hours", -5 * time.Hour},
		{"deliberately odd", 90 * time.Minute},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, _ := buildForum(t, tt.offset, 3)
			srv := httptest.NewServer(f.Handler())
			defer srv.Close()
			c := &Crawler{BaseURL: srv.URL, Clock: func() time.Time { return testNow }}
			got, err := c.MeasureOffset()
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.offset {
				t.Errorf("offset = %v, want %v", got, tt.offset)
			}
		})
	}
}

func TestScrapeRecoversTrueTimestamps(t *testing.T) {
	t.Parallel()
	const offset = 4 * time.Hour
	f, truth := buildForum(t, offset, 5)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	c := &Crawler{BaseURL: srv.URL, Clock: func() time.Time { return testNow }}
	res, err := c.Scrape("scraped")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerOffset != offset {
		t.Errorf("measured offset %v", res.ServerOffset)
	}
	// All imported posts recovered (probe post excluded).
	if res.Dataset.NumPosts() != f.NumPosts()-1 {
		t.Errorf("scraped %d posts, forum has %d (incl. probe)", res.Dataset.NumPosts(), f.NumPosts())
	}
	if res.Boards < 4 || res.Threads < 10 {
		t.Errorf("crawl coverage: %d boards, %d threads", res.Boards, res.Threads)
	}
	// Timestamps normalized to true UTC: the multiset of scraped
	// (author, second-truncated time) pairs equals the ground truth.
	wantSet := make(map[string]int)
	for _, p := range postsOf(truth) {
		wantSet[p.UserID+"|"+p.Time.UTC().Truncate(time.Second).Format(time.RFC3339)]++
	}
	for _, p := range postsOf(res.Dataset) {
		key := p.UserID + "|" + p.Time.UTC().Format(time.RFC3339)
		if wantSet[key] == 0 {
			t.Fatalf("scraped post not in ground truth: %s", key)
		}
		wantSet[key]--
	}
	for _, u := range res.Dataset.Users() {
		if u == ProbeAuthor {
			t.Error("probe account leaked into dataset")
		}
	}
}

func TestScrapeRoundTripsExactTimes(t *testing.T) {
	t.Parallel()
	f := forum.New(forum.Config{
		Name:         "Exact",
		ServerOffset: -2 * time.Hour,
		Clock:        func() time.Time { return testNow },
	})
	if _, err := f.Register("writer"); err != nil {
		t.Fatal(err)
	}
	b, err := f.AddBoard("Main", "")
	if err != nil {
		t.Fatal(err)
	}
	th, err := f.NewThread(b.ID, "topic")
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2017, time.March, 3, 21, 14, 5, 0, time.UTC)
	if _, err := f.PostAt(th.ID, "writer", "hello", want); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	c := &Crawler{BaseURL: srv.URL, Clock: func() time.Time { return testNow }}
	res, err := c.Scrape("exact")
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset.NumPosts() != 1 {
		t.Fatalf("posts = %d", res.Dataset.NumPosts())
	}
	got := res.Dataset.Post(0).Time
	if !got.Equal(want) {
		t.Errorf("recovered time %v, want %v", got, want)
	}
}

func TestScrapeThroughHiddenService(t *testing.T) {
	t.Parallel()
	// End to end over the onion network: the paper's actual collection
	// path.
	n := onion.NewNetwork(11)
	if _, err := n.AddRelays(8); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	f, _ := buildForum(t, 2*time.Hour, 4)
	svc, err := onion.HostService(n, "forum-host", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	server := &http.Server{Handler: f.Handler()}
	go func() { _ = server.Serve(svc.Listener()) }()
	defer server.Close()

	torClient, err := onion.NewClient(n, "scraper")
	if err != nil {
		t.Fatal(err)
	}
	defer torClient.Close()

	c := &Crawler{
		HTTPClient: &http.Client{Transport: &http.Transport{DialContext: torClient.DialContext}},
		BaseURL:    "http://" + svc.Onion(),
		Clock:      func() time.Time { return testNow },
	}
	res, err := c.Scrape("onion-scrape")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerOffset != 2*time.Hour {
		t.Errorf("offset = %v", res.ServerOffset)
	}
	if res.Dataset.NumPosts() != f.NumPosts()-1 {
		t.Errorf("scraped %d posts, forum has %d", res.Dataset.NumPosts(), f.NumPosts())
	}
}

func TestScrapeErrors(t *testing.T) {
	t.Parallel()
	// A server that serves nothing useful.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer srv.Close()
	c := &Crawler{BaseURL: srv.URL}
	if _, err := c.Scrape("broken"); err == nil {
		t.Error("scrape of broken server should fail")
	}
	// Unreachable server.
	c2 := &Crawler{BaseURL: "http://127.0.0.1:1"}
	if _, err := c2.MeasureOffset(); err == nil {
		t.Error("unreachable server should fail")
	}
}

func TestScrapeEscapedAuthorNames(t *testing.T) {
	t.Parallel()
	// Member names with HTML-special characters must survive the
	// template-escape / crawler-unescape round trip.
	f := forum.New(forum.Config{
		Name:  "escapes",
		Clock: func() time.Time { return testNow },
	})
	weird := `dealer <&> "quotes"`
	if _, err := f.Register(weird); err != nil {
		t.Fatal(err)
	}
	b, err := f.AddBoard("Main", "")
	if err != nil {
		t.Fatal(err)
	}
	th, err := f.NewThread(b.ID, "topic")
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2017, time.April, 2, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if _, err := f.PostAt(th.ID, weird, "x", at.Add(time.Duration(i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	c := &Crawler{BaseURL: srv.URL, Clock: func() time.Time { return testNow }}
	res, err := c.Scrape("escapes")
	if err != nil {
		t.Fatal(err)
	}
	users := res.Dataset.Users()
	if len(users) != 1 || users[0] != weird {
		t.Errorf("scraped users = %q, want %q", users, weird)
	}
}

func TestMeasureOffsetNoWelcomeThread(t *testing.T) {
	t.Parallel()
	// A server with boards but no Welcome thread: the probe must fail
	// cleanly.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			fmt.Fprint(w, `<a href="/board?id=1">Main</a>`)
		case "/board":
			fmt.Fprint(w, `<a href="/thread?id=5">Random topic</a>`)
		case "/register":
			w.WriteHeader(http.StatusCreated)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c := &Crawler{BaseURL: srv.URL}
	if _, err := c.MeasureOffset(); err == nil {
		t.Error("missing Welcome thread should fail")
	}
}

func TestMeasureOffsetRegisterRefused(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/register" {
			http.Error(w, "closed registrations", http.StatusForbidden)
			return
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()
	c := &Crawler{BaseURL: srv.URL}
	if _, err := c.MeasureOffset(); err == nil {
		t.Error("refused registration should fail")
	}
}

func TestMeasureOffsetSecondProbeTolerates409(t *testing.T) {
	t.Parallel()
	f, _ := buildForum(t, time.Hour, 2)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	c := &Crawler{BaseURL: srv.URL, Clock: func() time.Time { return testNow }}
	if _, err := c.MeasureOffset(); err != nil {
		t.Fatalf("first probe: %v", err)
	}
	// The probe account now exists; a second probe must still work.
	got, err := c.MeasureOffset()
	if err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if got != time.Hour {
		t.Errorf("second probe offset = %v", got)
	}
}

// postsOf materializes a dataset's rows through the Post accessor.
func postsOf(ds *trace.Dataset) []trace.Post {
	out := make([]trace.Post, ds.NumPosts())
	for i := range out {
		out[i] = ds.Post(i)
	}
	return out
}
