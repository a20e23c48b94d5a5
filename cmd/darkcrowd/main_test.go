package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"darkcrowd/internal/forum"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/pipeline"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// TestServeDaemonLifecycle boots the streaming daemon on an ephemeral
// port, ingests over HTTP, and shuts it down the way a SIGTERM would —
// asserting the advertised address is the resolved one (not ":0") and the
// exit is clean.
func TestServeDaemonLifecycle(t *testing.T) {
	type hooked struct {
		addr string
		stop context.CancelFunc
	}
	ready := make(chan hooked, 1)
	serveTestHook = func(addr string, stop context.CancelFunc) {
		ready <- hooked{addr, stop}
	}
	defer func() { serveTestHook = nil }()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve",
			"-addr", "127.0.0.1:0",
			"-twitter-scale", "300",
			"-min-posts", "5",
			"-refit-debounce", "-1ms",
		})
	}()
	var h hooked
	select {
	case h = <-ready:
	case err := <-done:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for the daemon to bind")
	}
	if strings.HasSuffix(h.addr, ":0") {
		t.Fatalf("advertised address %q kept the unresolved :0 port", h.addr)
	}
	base := "http://" + h.addr

	body := strings.NewReader(
		`{"user_id":"alice","time":"2018-03-01T12:00:00Z"}` + "\n" +
			`{"user_id":"alice","time":"2018-03-02T13:00:00Z"}` + "\n")
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", body)
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	var ing struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatalf("decode ingest result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ing.Accepted != 2 {
		t.Fatalf("ingest: status %d, accepted %d", resp.StatusCode, ing.Accepted)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var hz struct {
		Posts int `json:"posts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if hz.Posts != 2 {
		t.Fatalf("healthz posts = %d, want 2", hz.Posts)
	}

	// No user is active yet, so the crowd report must refuse politely.
	resp, err = http.Get(base + "/report")
	if err != nil {
		t.Fatalf("GET /report: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/report on an empty crowd: status %d, want 503", resp.StatusCode)
	}

	h.stop() // stands in for SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for graceful shutdown")
	}
}

func TestRunUsageAndErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args should fail")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand should fail")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

func TestParseRegions(t *testing.T) {
	got, err := parseRegions("jp:60,us-il:30")
	if err != nil {
		t.Fatal(err)
	}
	if got["jp"] != 60 || got["us-il"] != 30 {
		t.Errorf("parseRegions = %v", got)
	}
	for _, bad := range []string{"", "jp", "jp:x", "jp:0", "atlantis:5"} {
		if _, err := parseRegions(bad); err == nil {
			t.Errorf("parseRegions(%q) should fail", bad)
		}
	}
}

func TestGenerateProfileGeolocatePipeline(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "crowd.csv")
	if err := run([]string{"generate", "-regions", "jp:40", "-posts", "80", "-seed", "5", "-out", out}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("output missing: %v", err)
	}
	// Profile of the whole crowd.
	if err := run([]string{"profile", "-in", out}); err != nil {
		t.Fatalf("profile: %v", err)
	}
	// Profile of one user.
	ds, err := loadTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	user := ds.Users()[0]
	if err := run([]string{"profile", "-in", out, "-user", user}); err != nil {
		t.Fatalf("profile -user: %v", err)
	}
	if err := run([]string{"profile", "-in", out, "-user", "nobody"}); err == nil {
		t.Error("missing user should fail")
	}
	// Geolocate (small reference for speed).
	if err := run([]string{"geolocate", "-in", out, "-twitter-scale", "300"}); err != nil {
		t.Fatalf("geolocate: %v", err)
	}
	// Missing trace.
	if err := run([]string{"geolocate", "-in", filepath.Join(dir, "nope.csv")}); err == nil {
		t.Error("missing trace should fail")
	}
}

func TestHemisphereCommand(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "br.csv")
	if err := run([]string{"generate", "-regions", "br:3", "-posts", "3000", "-seed", "9", "-out", out}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := run([]string{"hemisphere", "-in", out, "-top", "3"}); err != nil {
		t.Fatalf("hemisphere: %v", err)
	}
}

func TestScrapeCommand(t *testing.T) {
	region, err := tz.ByCode("it")
	if err != nil {
		t.Fatal(err)
	}
	crowd, err := synth.GenerateCrowd(77, synth.CrowdConfig{
		Name:   "cli-scrape",
		Groups: []synth.Group{{Region: region, Users: 5, PostsPerUser: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := forum.New(forum.Config{
		Name:         "cli forum",
		ServerOffset: 2 * time.Hour,
		Clock:        func() time.Time { return time.Date(2017, 7, 1, 10, 0, 0, 0, time.UTC) },
	})
	if err := f.ImportCrowd(crowd, forum.ImportOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	dir := t.TempDir()
	out := filepath.Join(dir, "scraped.csv")
	if err := run([]string{"scrape", "-url", srv.URL + "/", "-out", out}); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	ds, err := loadTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumPosts() != crowd.NumPosts() {
		t.Errorf("scraped %d posts, want %d", ds.NumPosts(), crowd.NumPosts())
	}
	// Missing URL.
	if err := run([]string{"scrape"}); err == nil || !strings.Contains(err.Error(), "required") {
		t.Errorf("scrape without URL: %v", err)
	}
}

// TestSnapshotCommand: the snapshot subcommand compiles a CSV into a
// loadable .dcs, and geolocate -snapshot produces the same stdout whether
// it ingests the CSV or loads the snapshot.
func TestSnapshotCommand(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "crowd.csv")
	if err := run([]string{"generate", "-regions", "jp:40", "-posts", "80", "-seed", "5", "-out", csvPath}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	snapPath := filepath.Join(dir, "crowd.dcs")
	if err := run([]string{"snapshot", "-in", csvPath, "-out", snapPath, "-workers", "3"}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := trace.ReadSnapshotBytes(raw)
	if err != nil {
		t.Fatalf("snapshot output does not decode: %v", err)
	}
	if ds.NumPosts() == 0 {
		t.Fatal("snapshot dataset is empty")
	}
	// Default output path is <in>.dcs.
	if err := run([]string{"snapshot", "-in", csvPath}); err != nil {
		t.Fatalf("snapshot default out: %v", err)
	}
	if _, err := os.Stat(csvPath + ".dcs"); err != nil {
		t.Fatalf("default .dcs missing: %v", err)
	}
	// Missing input fails.
	if err := run([]string{"snapshot", "-in", filepath.Join(dir, "nope.csv")}); err == nil {
		t.Error("missing trace should fail")
	}

	// geolocate is stdout-identical across plain CSV ingest, a
	// snapshot-writing run, and a snapshot-loading run.
	geoArgs := []string{"geolocate", "-in", csvPath, "-twitter-scale", "300"}
	want := captureStdout(t, func() error { return run(geoArgs) })
	fresh := filepath.Join(dir, "fresh.dcs")
	withSnap := append(geoArgs, "-snapshot", fresh, "-workers", "5")
	if got := captureStdout(t, func() error { return run(withSnap) }); got != want {
		t.Errorf("snapshot-writing geolocate diverged:\n%s\nvs\n%s", got, want)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("geolocate did not write the snapshot: %v", err)
	}
	if got := captureStdout(t, func() error { return run(withSnap) }); got != want {
		t.Errorf("snapshot-loading geolocate diverged:\n%s\nvs\n%s", got, want)
	}
}

func TestGenerateErrors(t *testing.T) {
	if err := run([]string{"generate", "-regions", "bad"}); err == nil {
		t.Error("bad regions should fail")
	}
	if err := run([]string{"generate", "-regions", "jp:5", "-out", "/nonexistent-dir/x.csv"}); err == nil {
		t.Error("unwritable output should fail")
	}
}

func TestReferenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	if err := run([]string{"reference", "-twitter-scale", "300", "-out", refPath}); err != nil {
		t.Fatalf("reference: %v", err)
	}
	crowdPath := filepath.Join(dir, "crowd.csv")
	if err := run([]string{"generate", "-regions", "jp:30", "-out", crowdPath}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := run([]string{"geolocate", "-in", crowdPath, "-ref", refPath}); err != nil {
		t.Fatalf("geolocate with saved reference: %v", err)
	}
	if err := run([]string{"geolocate", "-in", crowdPath, "-ref", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing reference should fail")
	}
}

// capture runs fn with *stream (os.Stdout or os.Stderr) redirected into
// a pipe and returns everything written to it, along with fn's error.
func capture(t *testing.T, stream **os.File, fn func() error) (string, error) {
	t.Helper()
	old := *stream
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*stream = w
	runErr := fn()
	w.Close()
	*stream = old
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything it printed; fn must succeed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	out, err := capture(t, &os.Stdout, fn)
	if err != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", err, out)
	}
	return out
}

func TestGeolocateObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "crowd.csv")
	if err := run([]string{"generate", "-regions", "jp:40", "-posts", "80", "-seed", "5", "-out", out}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	got := captureStdout(t, func() error {
		return run([]string{"geolocate", "-in", out, "-twitter-scale", "300", "-metrics", "-trace"})
	})
	// The stage tree must cover the whole pipeline.
	for _, stage := range []string{"geolocate", "load-trace", "reference", "profile-build", "polish", "placement", "em-select"} {
		if !strings.Contains(got, stage) {
			t.Errorf("trace output missing stage %q:\n%s", stage, got)
		}
	}
	// The metrics report is the trailing JSON object.
	idx := strings.Index(got, "{")
	if idx < 0 {
		t.Fatalf("no JSON metrics report in output:\n%s", got)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(got[idx:]), &snap); err != nil {
		t.Fatalf("metrics report is not valid JSON: %v\n%s", err, got[idx:])
	}
	for _, name := range []string{"trace.posts_loaded", "profile.users_built", "placement.users_placed"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q missing from metrics report: %v", name, snap.Counters)
		}
	}
	if snap.Gauges["em.selected_k"] == 0 {
		t.Errorf("em.selected_k missing from metrics report: %v", snap.Gauges)
	}
}

func TestScrapeObservabilityFlags(t *testing.T) {
	region, err := tz.ByCode("it")
	if err != nil {
		t.Fatal(err)
	}
	crowd, err := synth.GenerateCrowd(78, synth.CrowdConfig{
		Name:   "cli-scrape-obs",
		Groups: []synth.Group{{Region: region, Users: 4, PostsPerUser: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := forum.New(forum.Config{
		Name:         "obs forum",
		ServerOffset: time.Hour,
		Clock:        func() time.Time { return time.Date(2017, 7, 1, 10, 0, 0, 0, time.UTC) },
	})
	if err := f.ImportCrowd(crowd, forum.ImportOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	dir := t.TempDir()
	out := filepath.Join(dir, "scraped.csv")
	got := captureStdout(t, func() error {
		return run([]string{"scrape", "-url", srv.URL, "-out", out, "-metrics", "-trace"})
	})
	for _, stage := range []string{"scrape", "crawl", "probe"} {
		if !strings.Contains(got, stage) {
			t.Errorf("trace output missing stage %q:\n%s", stage, got)
		}
	}
	idx := strings.Index(got, "{")
	if idx < 0 {
		t.Fatalf("no JSON metrics report in output:\n%s", got)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(got[idx:]), &snap); err != nil {
		t.Fatalf("metrics report is not valid JSON: %v\n%s", err, got[idx:])
	}
	for _, name := range []string{"crawler.requests", "crawler.threads_scraped", "crawler.pages", "crawler.posts_collected"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q missing from metrics report: %v", name, snap.Counters)
		}
	}
}

// TestGeolocateCheckpointResumeHint: a checkpointed run resumes the
// reference, and the "rerun to resume" hint follows every failure except
// a checkpoint that can never resume (foreign fingerprint, old version).
func TestGeolocateCheckpointResumeHint(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	if err := run([]string{"reference", "-twitter-scale", "300", "-out", refPath}); err != nil {
		t.Fatalf("reference: %v", err)
	}
	crowdPath := filepath.Join(dir, "crowd.csv")
	if err := run([]string{"generate", "-regions", "jp:30", "-out", crowdPath}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	ckpt := filepath.Join(dir, "stage.ckpt")
	geolocate := func(extra ...string) (string, error) {
		args := append([]string{"geolocate", "-in", crowdPath, "-ref", refPath, "-checkpoint", ckpt}, extra...)
		return capture(t, &os.Stderr, func() error { return run(args) })
	}
	const hint, resumed = "rerun with -checkpoint", "resumed reference from checkpoint"

	if stderr, err := geolocate(); err != nil || strings.Contains(stderr, resumed) {
		t.Fatalf("fresh run: err %v, stderr:\n%s", err, stderr)
	}
	if stderr, err := geolocate(); err != nil || !strings.Contains(stderr, resumed) {
		t.Fatalf("resumed run: err %v, stderr:\n%s", err, stderr)
	}

	// Another active-user threshold: the fingerprint differs.
	stderr, err := geolocate("-min-posts", "10")
	if !errors.Is(err, pipeline.ErrCheckpointMismatch) || strings.Contains(stderr, hint) {
		t.Errorf("fingerprint mismatch: err %v, stderr:\n%s", err, stderr)
	}

	// A checkpoint from an older format version.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var ck map[string]json.RawMessage
	if err := json.Unmarshal(raw, &ck); err != nil {
		t.Fatal(err)
	}
	ck["version"] = json.RawMessage("3")
	old, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, old, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr, err = geolocate()
	if !errors.Is(err, pipeline.ErrCheckpointVersion) || strings.Contains(stderr, hint) {
		t.Errorf("old version: err %v, stderr:\n%s", err, stderr)
	}

	// Any other failure keeps the hint.
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	stderr, err = capture(t, &os.Stderr, func() error {
		return run([]string{"geolocate", "-in", crowdPath, "-ref", filepath.Join(dir, "missing.json"), "-checkpoint", ckpt})
	})
	if err == nil || !strings.Contains(stderr, hint) {
		t.Errorf("missing reference: err %v, stderr:\n%s", err, stderr)
	}
}
