package crawler

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"darkcrowd/internal/onion"
)

func TestBackoffGrowthAndCap(t *testing.T) {
	t.Parallel()
	p := RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 300 * time.Millisecond, Jitter: -1}.withDefaults()
	tests := []struct {
		retry int
		want  time.Duration
	}{
		{1, 50 * time.Millisecond},
		{2, 100 * time.Millisecond},
		{3, 200 * time.Millisecond},
		{4, 300 * time.Millisecond}, // capped from 400ms
		{9, 300 * time.Millisecond}, // stays at the cap
	}
	for _, tt := range tests {
		if got := p.backoff(tt.retry, nil); got != tt.want {
			t.Errorf("backoff(%d) = %v, want %v", tt.retry, got, tt.want)
		}
	}
}

func TestBackoffJitterBoundedAndDeterministic(t *testing.T) {
	t.Parallel()
	p := RetryPolicy{}.withDefaults()
	draw := func() []time.Duration {
		rng := rand.New(rand.NewSource(p.Seed))
		var out []time.Duration
		for retry := 1; retry <= 6; retry++ {
			out = append(out, p.backoff(retry, rng))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	// Every jittered value stays within ±Jitter of the unjittered one.
	noJitter := RetryPolicy{Jitter: -1}.withDefaults()
	for i, got := range a {
		base := noJitter.backoff(i+1, nil)
		lo := time.Duration(float64(base) * (1 - p.Jitter))
		hi := time.Duration(float64(base) * (1 + p.Jitter))
		if got < lo || got > hi {
			t.Errorf("backoff(%d) = %v outside [%v, %v]", i+1, got, lo, hi)
		}
	}
}

func TestTransientClassification(t *testing.T) {
	t.Parallel()
	if !transientStatus(500) || !transientStatus(503) || !transientStatus(429) {
		t.Error("5xx/429 must be transient")
	}
	if transientStatus(200) || transientStatus(404) || transientStatus(403) {
		t.Error("2xx/4xx (except 429) must not be transient")
	}
	if !transientError(errors.New("connection reset")) {
		t.Error("transport errors are transient")
	}
	if !transientError(context.DeadlineExceeded) {
		t.Error("a per-request deadline firing is transient")
	}
	if transientError(context.Canceled) {
		t.Error("cancellation is never transient")
	}
	if transientError(nil) {
		t.Error("nil is not an error")
	}
}

// newFastCrawler returns a crawler whose retry pauses are recorded
// instead of slept.
func newFastCrawler(baseURL string) (*Crawler, *[]time.Duration) {
	var mu sync.Mutex
	var sleeps []time.Duration
	c := &Crawler{
		BaseURL: baseURL,
		Clock:   func() time.Time { return testNow },
		Sleep: func(d time.Duration) {
			mu.Lock()
			sleeps = append(sleeps, d)
			mu.Unlock()
		},
	}
	return c, &sleeps
}

func TestScrapeSurvivesScriptedTransportFaults(t *testing.T) {
	t.Parallel()
	f, _ := buildForum(t, time.Hour, 3)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	// Fault the first requests several different ways; the crawl must
	// retry through all of them and produce the clean dataset.
	flaky := onion.NewFlakyTransport(http.DefaultTransport,
		onion.FlakyConnReset, onion.FlakyOK, onion.Flaky500,
		onion.Flaky503, onion.FlakyOK, onion.FlakyBodyCut)
	c, sleeps := newFastCrawler(srv.URL)
	c.HTTPClient = &http.Client{Transport: flaky}

	res, err := c.Scrape("flaky")
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset.NumPosts() != f.NumPosts()-1 {
		t.Errorf("scraped %d posts, forum has %d", res.Dataset.NumPosts(), f.NumPosts())
	}
	if res.Retries < 4 {
		t.Errorf("retries = %d, want at least the 4 scripted faults", res.Retries)
	}
	if res.Skipped != 0 || len(res.Errors) != 0 {
		t.Errorf("skipped = %d, errors = %v; faults were all transient", res.Skipped, res.Errors)
	}
	if len(*sleeps) == 0 {
		t.Error("retries must back off")
	}

	// Same scrape against a clean transport: identical dataset.
	clean := &Crawler{BaseURL: srv.URL, Clock: func() time.Time { return testNow }}
	want, err := clean.Scrape("flaky")
	if err != nil {
		t.Fatal(err)
	}
	if want.Dataset.NumPosts() != res.Dataset.NumPosts() {
		t.Fatalf("faulted crawl: %d posts, clean crawl: %d", res.Dataset.NumPosts(), want.Dataset.NumPosts())
	}
	for i := 0; i < want.Dataset.NumPosts(); i++ {
		if want.Dataset.Post(i) != res.Dataset.Post(i) {
			t.Fatalf("post %d differs: %+v vs %+v", i, res.Dataset.Post(i), want.Dataset.Post(i))
		}
	}
}

func TestRetriesExhaustedSurfacesLastError(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c, _ := newFastCrawler(srv.URL)
	c.Retry = RetryPolicy{MaxAttempts: 3}
	_, err := c.get(context.Background(), "/")
	if err == nil {
		t.Fatal("permanently-503 server must fail")
	}
	if !strings.Contains(err.Error(), "3 attempts") || !strings.Contains(err.Error(), "status 503") {
		t.Errorf("error should report attempts and final status: %v", err)
	}
	if !strings.Contains(err.Error(), srv.URL) {
		t.Errorf("error should carry the URL: %v", err)
	}
}

func TestNonTransientStatusDoesNotRetry(t *testing.T) {
	t.Parallel()
	var calls int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		http.NotFound(w, r)
	}))
	defer srv.Close()
	c, _ := newFastCrawler(srv.URL)
	_, err := c.get(context.Background(), "/missing")
	if err == nil {
		t.Fatal("404 must error")
	}
	if !strings.Contains(err.Error(), "status 404") || !strings.Contains(err.Error(), srv.URL+"/missing") {
		t.Errorf("error should carry final URL and status: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("404 was attempted %d times; client errors must not retry", calls)
	}
}

func TestPerRequestTimeoutRecovers(t *testing.T) {
	t.Parallel()
	f, _ := buildForum(t, 0, 2)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	// First request hangs; the per-request timeout must fire and the
	// retry succeed.
	flaky := onion.NewFlakyTransport(http.DefaultTransport, onion.FlakyHang)
	c, _ := newFastCrawler(srv.URL)
	c.HTTPClient = &http.Client{Transport: flaky}
	c.Timeout = 50 * time.Millisecond
	if _, err := c.MeasureOffset(); err != nil {
		t.Fatalf("hang + retry: %v", err)
	}
	if flaky.Calls() < 2 {
		t.Errorf("transport saw %d calls, want the hung attempt plus a retry", flaky.Calls())
	}
}

func TestContextCancellationAborts(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	c := &Crawler{BaseURL: srv.URL}
	_, err := c.get(ctx, "/")
	if err == nil {
		t.Fatal("cancelled request must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

func TestBodyCapRejectsOversizedPages(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("x", 4096)))
	}))
	defer srv.Close()
	c, _ := newFastCrawler(srv.URL)
	c.MaxBodyBytes = 1024
	_, err := c.get(context.Background(), "/")
	if !errors.Is(err, errBodyTooLarge) {
		t.Fatalf("want errBodyTooLarge, got %v", err)
	}
}

func TestPolitenessRateLimits(t *testing.T) {
	t.Parallel()
	f, _ := buildForum(t, 0, 2)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	c, sleeps := newFastCrawler(srv.URL)
	c.MinInterval = 500 * time.Millisecond
	if _, err := c.MeasureOffset(); err != nil {
		t.Fatal(err)
	}
	// The probe makes several requests; all but the first must have
	// queued behind the politeness gate.
	if len(*sleeps) < 2 {
		t.Fatalf("recorded %d politeness pauses, want several", len(*sleeps))
	}
	for i, d := range *sleeps {
		if d <= 0 || d > 10*c.MinInterval {
			t.Errorf("pause %d = %v, implausible for MinInterval %v", i, d, c.MinInterval)
		}
	}
}

func TestMonitorPollContextUsesRobustLayer(t *testing.T) {
	t.Parallel()
	f, _ := buildForum(t, 0, 2)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	flaky := onion.NewFlakyTransport(http.DefaultTransport, onion.Flaky503)
	c, _ := newFastCrawler(srv.URL)
	c.HTTPClient = &http.Client{Transport: flaky}
	m := NewMonitor(c, "watch")
	if _, err := m.PollContext(context.Background()); err != nil {
		t.Fatalf("poll through a transient 503: %v", err)
	}
	if flaky.Faults() != 1 {
		t.Errorf("faults fired = %d, want 1", flaky.Faults())
	}
}
