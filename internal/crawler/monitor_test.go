package crawler

import (
	"net/http/httptest"
	"testing"
	"time"

	"darkcrowd/internal/forum"
)

func hiddenForum(t *testing.T) (*forum.Forum, []int) {
	t.Helper()
	f := forum.New(forum.Config{
		Name:           "hidden",
		HideTimestamps: true,
		PageSize:       10,
		Clock:          func() time.Time { return testNow },
	})
	for _, u := range []string{"u1", "u2"} {
		if _, err := f.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	b, err := f.AddBoard("Main", "")
	if err != nil {
		t.Fatal(err)
	}
	th, err := f.NewThread(b.ID, "topic")
	if err != nil {
		t.Fatal(err)
	}
	return f, []int{th.ID}
}

func TestScrapeRefusesHiddenTimestamps(t *testing.T) {
	t.Parallel()
	f, _ := hiddenForum(t)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	c := &Crawler{BaseURL: srv.URL, Clock: func() time.Time { return testNow }}
	if _, err := c.Scrape("nope"); err == nil {
		t.Fatal("scrape of hidden-timestamp forum should fail")
	}
}

func TestMonitorObservesNewPosts(t *testing.T) {
	t.Parallel()
	f, threads := hiddenForum(t)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	// Two pre-existing posts that the baseline sweep must skip.
	for i := 0; i < 2; i++ {
		if _, err := f.PostAt(threads[0], "u1", "old", testNow.Add(-time.Hour)); err != nil {
			t.Fatal(err)
		}
	}

	var simNow time.Time
	c := &Crawler{BaseURL: srv.URL}
	m := NewMonitor(c, "watched")
	m.Clock = func() time.Time { return simNow }

	simNow = testNow
	n, err := m.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("baseline sweep recorded %d posts, want 0", n)
	}

	// New posts appear; the monitor stamps them with its own clock.
	want := []struct {
		user string
		at   time.Time
	}{
		{"u1", testNow.Add(10 * time.Minute)},
		{"u2", testNow.Add(20 * time.Minute)},
		{"u2", testNow.Add(30 * time.Minute)},
	}
	for i, w := range want {
		if _, err := f.PostAt(threads[0], w.user, "new", w.at); err != nil {
			t.Fatal(err)
		}
		simNow = w.at.Add(time.Minute) // sweep shortly after the post
		n, err := m.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("sweep %d recorded %d posts, want 1", i, n)
		}
	}
	ds := m.Dataset()
	if ds.NumPosts() != 3 {
		t.Fatalf("monitored dataset has %d posts, want 3", ds.NumPosts())
	}
	counts := ds.PostCounts()
	if counts["u1"] != 1 || counts["u2"] != 2 {
		t.Errorf("per-user counts %v", counts)
	}
	// Observation times within a minute of the true posting times.
	for i, p := range postsOf(ds) {
		if d := p.Time.Sub(want[i].at); d < 0 || d > 2*time.Minute {
			t.Errorf("post %d observed at %v, posted at %v", i, p.Time, want[i].at)
		}
	}
	if m.Polls() != 4 {
		t.Errorf("Polls() = %d, want 4", m.Polls())
	}
}

func TestMonitorIdempotentSweeps(t *testing.T) {
	t.Parallel()
	f, threads := hiddenForum(t)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	c := &Crawler{BaseURL: srv.URL}
	m := NewMonitor(c, "idem")
	m.Clock = func() time.Time { return testNow }
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PostAt(threads[0], "u1", "x", testNow); err != nil {
		t.Fatal(err)
	}
	n, err := m.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("first sweep after post: %d", n)
	}
	// Re-sweeping without new posts records nothing.
	for i := 0; i < 3; i++ {
		n, err := m.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("idle sweep recorded %d posts", n)
		}
	}
}

func TestMonitorSkipsProbeAuthor(t *testing.T) {
	t.Parallel()
	f, threads := hiddenForum(t)
	if _, err := f.Register(ProbeAuthor); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	c := &Crawler{BaseURL: srv.URL}
	m := NewMonitor(c, "probe-skip")
	m.Clock = func() time.Time { return testNow }
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PostAt(threads[0], ProbeAuthor, "probe", testNow); err != nil {
		t.Fatal(err)
	}
	n, err := m.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || m.Dataset().NumPosts() != 0 {
		t.Errorf("probe post recorded: n=%d posts=%d", n, m.Dataset().NumPosts())
	}
}

func TestMonitorWorksWithVisibleTimestampsToo(t *testing.T) {
	t.Parallel()
	// Monitoring does not require hidden timestamps; it simply ignores
	// them.
	f, truth := buildForum(t, 2*time.Hour, 2)
	_ = truth
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	c := &Crawler{BaseURL: srv.URL}
	m := NewMonitor(c, "visible")
	m.Clock = func() time.Time { return testNow }
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if m.Dataset().NumPosts() != 0 {
		t.Error("baseline sweep should record nothing")
	}
}
