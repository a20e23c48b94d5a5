package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// ndjson renders posts as the daemon's ingest wire format: one trace.Post
// JSON object per line.
func ndjson(posts []trace.Post) []byte {
	var b bytes.Buffer
	for _, p := range posts {
		fmt.Fprintf(&b, "{\"user_id\":%q,\"time\":%q}\n", p.UserID, p.Time.Format(time.RFC3339))
	}
	return b.Bytes()
}

// batchGeo runs the batch pipeline over the CSV trace and returns the
// marshalled Geolocation — the reference output streaming must reproduce.
func batchGeo(t testing.TB, tracePath string) (*Result, string) {
	t.Helper()
	res, err := Geolocate(Config{
		TracePath:   tracePath,
		Reference:   testReference(t),
		ReferenceID: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, geoJSON(t, res)
}

func mustPost(t *testing.T, url string, body []byte) IngestResult {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: status %d", resp.StatusCode)
	}
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

func getReport(t *testing.T, url string) *ServeReport {
	t.Helper()
	resp, err := http.Get(url + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /report: status %d", resp.StatusCode)
	}
	var rep ServeReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestDaemonStreamingEquivalence is the tentpole acceptance gate: posts
// ingested through /ingest — shuffled, in odd-sized chunks — must yield a
// /report whose Geolocation is bit-identical (same JSON bytes; Go's
// float64 JSON encoding is shortest-round-trip, so equal bytes mean equal
// bits) to the batch pipeline over the same trace. The trace carries
// bursts (see withBursts), so the shuffled drain also meets duplicate
// cells arriving before and after their first post.
func TestDaemonStreamingEquivalence(t *testing.T) {
	dir := t.TempDir()
	path := writeCrowd(t, dir)
	rows := withBursts(t, path)
	batchRes, wantGeo := batchGeo(t, path)

	for _, chunk := range []int{1, 17, 400} {
		posts := make([]trace.Post, len(rows))
		copy(posts, rows)
		rand.New(rand.NewSource(int64(chunk))).Shuffle(len(posts), func(i, j int) {
			posts[i], posts[j] = posts[j], posts[i]
		})
		d, err := NewDaemon(ServeConfig{Reference: testReference(t), RefitDebounce: -1})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(d.Handler())
		accepted := 0
		for i := 0; i < len(posts); i += chunk {
			end := i + chunk
			if end > len(posts) {
				end = len(posts)
			}
			accepted += mustPost(t, srv.URL, ndjson(posts[i:end])).Accepted
		}
		if accepted != len(posts) {
			t.Fatalf("chunk %d: accepted %d of %d posts", chunk, accepted, len(posts))
		}
		rep := getReport(t, srv.URL)
		gotGeo, err := json.Marshal(rep.Geo)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotGeo) != wantGeo {
			t.Errorf("chunk %d: streamed report differs from batch geolocate output", chunk)
		}
		if rep.ActiveUsers != batchRes.ActiveUsers || rep.PolishRemoved != batchRes.PolishRemoved {
			t.Errorf("chunk %d: active/polish = %d/%d, batch %d/%d",
				chunk, rep.ActiveUsers, rep.PolishRemoved, batchRes.ActiveUsers, batchRes.PolishRemoved)
		}
		if rep.Gen != uint64(len(posts)) || rep.Posts != len(posts) {
			t.Errorf("chunk %d: gen/posts = %d/%d, want %d", chunk, rep.Gen, rep.Posts, len(posts))
		}
		srv.Close()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// withBursts appends bursts to the CSV trace at path for every tenth user
// in sorted order: three exact repeats of every fourth post and two posts
// in the same UTC hour at other minutes. Eq. 1 counts each of those cells
// once. It returns every row of the extended trace.
func withBursts(t testing.TB, path string) []trace.Post {
	t.Helper()
	rows := loadPosts(t, path)
	users := map[string]bool{}
	for _, p := range rows {
		users[p.UserID] = false
	}
	ids := make([]string, 0, len(users))
	for id := range users {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for i := 0; i < len(ids); i += 10 {
		users[ids[i]] = true
	}
	var csv bytes.Buffer
	seen := map[string]int{}
	for _, p := range rows {
		if !users[p.UserID] {
			continue
		}
		seen[p.UserID]++
		if seen[p.UserID]%4 != 1 {
			continue
		}
		hour := p.Time.Truncate(time.Hour)
		minute := time.Duration(p.Time.Minute()) * time.Minute
		burst := []time.Time{p.Time, p.Time, p.Time,
			hour.Add((minute + 17*time.Minute) % time.Hour),
			hour.Add((minute+41*time.Minute)%time.Hour + 5*time.Second)}
		for _, at := range burst {
			rows = append(rows, trace.Post{UserID: p.UserID, Time: at})
			fmt.Fprintf(&csv, "%s,%s\n", p.UserID, at.Format(time.RFC3339))
		}
	}
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(csv.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// loadPosts ingests the CSV trace at path and returns its rows.
func loadPosts(t testing.TB, path string) []trace.Post {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.IngestCSV(path, data, trace.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	posts := make([]trace.Post, res.Dataset.NumPosts())
	for i := range posts {
		posts[i] = res.Dataset.Post(i)
	}
	return posts
}

// TestDaemonConcurrentIngestRace streams the crowd from several writer
// goroutines while readers hammer /place and /report (plus the background
// refitter at an aggressive debounce); once drained, the final report must
// still be bit-identical to the batch run. Run under -race this is the
// daemon's consistency gate.
func TestDaemonConcurrentIngestRace(t *testing.T) {
	dir := t.TempDir()
	path := writeCrowd(t, dir)
	_, wantGeo := batchGeo(t, path)

	rows := loadPosts(t, path)
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	d, err := NewDaemon(ServeConfig{
		Reference:     testReference(t),
		RefitDebounce: 5 * time.Millisecond,
		CompactEvery:  512,
		Obs:           o,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Writer w streams every writers-th post, in chunks of 37.
			var shard []trace.Post
			for i := w; i < len(rows); i += writers {
				shard = append(shard, rows[i])
			}
			for i := 0; i < len(shard); i += 37 {
				end := i + 37
				if end > len(shard) {
					end = len(shard)
				}
				resp, err := http.Post(srv.URL+"/ingest", "application/x-ndjson", bytes.NewReader(ndjson(shard[i:end])))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d: status %d", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	stopRead := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			paths := []string{"/report", "/healthz", "/place/" + rows[r].UserID, "/place/nobody-here"}
			for i := 0; ; i++ {
				select {
				case <-stopRead:
					return
				default:
				}
				// Any status is fine mid-stream (503 before the first active
				// user, 404 for unknown users); the race detector and the
				// final equivalence check below are the assertions.
				resp, err := http.Get(srv.URL + paths[i%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(r)
	}
	wg.Wait()
	close(stopRead)
	readers.Wait()

	rep := getReport(t, srv.URL)
	gotGeo, err := json.Marshal(rep.Geo)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotGeo) != wantGeo {
		t.Error("drained concurrent-ingest report differs from batch geolocate output")
	}
	if rep.Posts != len(rows) {
		t.Errorf("report posts = %d, want %d", rep.Posts, len(rows))
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["serve.posts_ingested"] != int64(len(rows)) {
		t.Errorf("serve.posts_ingested = %d, want %d", snap.Counters["serve.posts_ingested"], len(rows))
	}
	if snap.Counters["serve.compactions"] == 0 {
		t.Error("no compactions recorded despite CompactEvery=512")
	}
}

// TestDaemonSnapshotWarmStart checks the immutable-base checkpoint loop:
// a daemon with a snapshot path persists compacted state, and a fresh
// daemon booted on the same path reports identically without re-ingesting.
func TestDaemonSnapshotWarmStart(t *testing.T) {
	dir := t.TempDir()
	path := writeCrowd(t, dir)
	rows := loadPosts(t, path)
	snap := dir + "/serve.dcs"
	d1, err := NewDaemon(ServeConfig{
		Reference:     testReference(t),
		SnapshotPath:  snap,
		CompactEvery:  256,
		RefitDebounce: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Ingest(bytes.NewReader(ndjson(rows))); err != nil {
		t.Fatal(err)
	}
	rep1, err := d1.Report()
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := trace.ReadSnapshotBytes(mustReadBytes(t, snap))
	if err != nil {
		t.Fatalf("final snapshot unreadable: %v", err)
	}
	if restored.NumPosts() != len(rows) {
		t.Fatalf("snapshot holds %d posts, want %d", restored.NumPosts(), len(rows))
	}

	d2, err := NewDaemon(ServeConfig{
		Reference:     testReference(t),
		SnapshotPath:  snap,
		RefitDebounce: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	h := d2.Healthz()
	if h.Posts != len(rows) || h.Gen != uint64(len(rows)) {
		t.Fatalf("warm start: posts/gen = %d/%d, want %d", h.Posts, h.Gen, len(rows))
	}
	rep2, err := d2.Report()
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := json.Marshal(rep1.Geo)
	g2, _ := json.Marshal(rep2.Geo)
	if !bytes.Equal(g1, g2) {
		t.Error("warm-started report differs from the pre-restart report")
	}
}

func mustReadBytes(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDaemonIngestAndPlaceEdges covers the lenient ingest contract and the
// /place endpoint's three answers: unknown (404), known-but-inactive, and
// active with a zone.
func TestDaemonIngestAndPlaceEdges(t *testing.T) {
	d, err := NewDaemon(ServeConfig{Reference: testReference(t), MinPosts: 3, RefitDebounce: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// No crowd yet: /report is 503, /healthz is fine.
	resp, err := http.Get(srv.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty /report status = %d, want 503", resp.StatusCode)
	}

	body := "\n" + // blank lines are not an error, but they count
		"{\"user_id\":\"alice\",\"time\":\"2018-03-01T12:00:00Z\"}\n" +
		"this is not json\n" +
		"\n" + // blank lines are not an error
		"{\"user_id\":\"\",\"time\":\"2018-03-01T12:00:00Z\"}\n" + // empty user
		"{\"user_id\":\"bob\"}\n" + // missing time
		"{\"user_id\":\"alice\",\"time\":\"2018-03-02T18:00:00Z\"}\n"
	res := mustPost(t, srv.URL, []byte(body))
	if res.Accepted != 2 || res.Rejected != 3 {
		t.Fatalf("accepted/rejected = %d/%d, want 2/3", res.Accepted, res.Rejected)
	}
	if !strings.HasPrefix(res.FirstError, "bad line 3:") {
		t.Fatalf("first_error = %q, want the physical line number 3", res.FirstError)
	}
	if h := d.Healthz(); h.Rejected != 3 {
		t.Fatalf("healthz rejected_lines = %d, want 3", h.Rejected)
	}

	// Unknown user: 404.
	resp, err = http.Get(srv.URL + "/place/nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/place/nobody status = %d, want 404", resp.StatusCode)
	}

	// Known but below threshold: active=false, no zone.
	pr, ok := d.Place("alice")
	if !ok || pr.Active || pr.ZoneIndex != nil || pr.Posts != 2 {
		t.Fatalf("inactive place = %+v ok=%v", pr, ok)
	}

	// One more post activates alice; the answer carries a zone, and a
	// repeat answer comes from the version-keyed cache (same value).
	mustPost(t, srv.URL, []byte("{\"user_id\":\"alice\",\"time\":\"2018-03-03T19:00:00Z\"}\n"))
	pr, ok = d.Place("alice")
	if !ok || !pr.Active || pr.ZoneIndex == nil || pr.Offset == "" {
		t.Fatalf("active place = %+v ok=%v", pr, ok)
	}
	again, _ := d.Place("alice")
	if *again.ZoneIndex != *pr.ZoneIndex || again.Offset != pr.Offset {
		t.Fatalf("cached place differs: %+v vs %+v", again, pr)
	}
}

// TestDaemonConfigErrors pins the constructor contract.
func TestDaemonConfigErrors(t *testing.T) {
	if _, err := NewDaemon(ServeConfig{}); err == nil {
		t.Fatal("missing Reference should fail")
	}
	if _, err := NewDaemon(ServeConfig{
		Reference: func() (*profile.GenericResult, error) { return nil, fmt.Errorf("boom") },
	}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("reference error not propagated: %v", err)
	}
}

// TestDaemonIngestResultConsistency hammers the daemon with single-post
// bodies, each introducing a brand-new user — the worst case for the
// Users/Posts totals race. Every response must satisfy Users <= Posts:
// the old finishIngest loaded gen before users, so a concurrent apply
// (which bumps gen first, then users) could surface a user whose post
// was not yet counted, reporting Users > Posts on a fresh stream.
func TestDaemonIngestResultConsistency(t *testing.T) {
	d, err := NewDaemon(ServeConfig{Reference: testReference(t), RefitDebounce: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const writers = 8
	const perWriter = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				body := fmt.Sprintf("{\"user_id\":\"w%d-u%04d\",\"time\":\"2017-06-01T10:00:00Z\"}\n", w, i)
				res, err := d.Ingest(strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				if res.Accepted != 1 {
					t.Errorf("accepted %d, want 1", res.Accepted)
					return
				}
				if res.Users > res.Posts {
					t.Errorf("inconsistent totals: %d users > %d posts", res.Users, res.Posts)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	h := d.Healthz()
	if h.Posts != writers*perWriter || h.Users != writers*perWriter {
		t.Fatalf("final totals %d posts / %d users, want %d each", h.Posts, h.Users, writers*perWriter)
	}
}

// TestDaemonRefitScansDirtyUsers counts kernel calls per refit on a crowd
// whose polish pass 1 removes nobody: the first refit scans every active
// user once (polish and placement share the scan), and after k users gain
// a new activity cell the next refit scans exactly those k.
func TestDaemonRefitScansDirtyUsers(t *testing.T) {
	jp, err := tz.ByCode("jp")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.GenerateCrowd(3, synth.CrowdConfig{
		Name:   "dirty-refit",
		Groups: []synth.Group{{Region: jp, Users: 30, PostsPerUser: 300}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]trace.Post, ds.NumPosts())
	for i := range rows {
		rows[i] = ds.Post(i)
	}
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	d, err := NewDaemon(ServeConfig{Reference: testReference(t), RefitDebounce: -1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	scans := o.Metrics.Counter(profile.ZoneScansCounter)

	mustPost(t, srv.URL, ndjson(rows))
	rep := getReport(t, srv.URL)
	if rep.PolishRemoved != 0 {
		t.Fatalf("premise broken: polish removed %d users", rep.PolishRemoved)
	}
	if got := scans.Load(); got != int64(rep.ActiveUsers) {
		t.Fatalf("cold refit made %d zone scans, want one per active user (%d)", got, rep.ActiveUsers)
	}

	const k = 3
	users := make([]string, 0, len(rep.Geo.Placement.Assignments))
	for id := range rep.Geo.Placement.Assignments {
		users = append(users, id)
	}
	sort.Strings(users)
	var dirty []trace.Post
	for i, id := range users[:k] {
		// A day no user posted on: a new activity cell for each.
		at := rows[0].Time.Add(time.Duration(1000+i) * 24 * time.Hour)
		dirty = append(dirty, trace.Post{UserID: id, Time: at})
	}
	before := scans.Load()
	mustPost(t, srv.URL, ndjson(dirty))
	rep = getReport(t, srv.URL)
	if rep.PolishRemoved != 0 {
		t.Fatalf("premise broken: polish removed %d users after the dirtying posts", rep.PolishRemoved)
	}
	if got := scans.Load() - before; got != k {
		t.Errorf("refit after dirtying %d users made %d zone scans, want %d", k, got, k)
	}
}
