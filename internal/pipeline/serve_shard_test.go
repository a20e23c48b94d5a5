package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/trace"
)

// daemonShardCounts is the shard sweep every invariance test runs:
// the single-shard degenerate case, a non-default power of two, the
// default, and a rounded-up odd count.
var daemonShardCounts = []int{1, 2, 16, 5}

// TestDaemonShardInvariance is the serving-path determinism gate: for a
// fixed ingest order, the drained /report and the final .dcs checkpoint
// must be bit-identical at every shard count — sharding is a concurrency
// layout, never an observable behaviour.
func TestDaemonShardInvariance(t *testing.T) {
	dir := t.TempDir()
	path := writeCrowd(t, dir)
	_, wantGeo := batchGeo(t, path)
	rows := loadPosts(t, path)

	var wantSnap []byte
	for _, shards := range daemonShardCounts {
		snap := fmt.Sprintf("%s/serve-%d.dcs", dir, shards)
		d, err := NewDaemon(ServeConfig{
			Reference:     testReference(t),
			Shards:        shards,
			CompactEvery:  128, // force several mid-stream folds
			SnapshotPath:  snap,
			RefitDebounce: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Odd-sized chunks so folds land mid-request.
		for i := 0; i < len(rows); i += 211 {
			end := i + 211
			if end > len(rows) {
				end = len(rows)
			}
			if _, err := d.Ingest(bytes.NewReader(ndjson(rows[i:end]))); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := d.Report()
		if err != nil {
			t.Fatal(err)
		}
		gotGeo, err := json.Marshal(rep.Geo)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotGeo) != wantGeo {
			t.Errorf("shards=%d: drained report differs from batch geolocate output", shards)
		}
		if rep.Gen != uint64(len(rows)) || rep.Posts != len(rows) {
			t.Errorf("shards=%d: gen/posts = %d/%d, want %d", shards, rep.Gen, rep.Posts, len(rows))
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		snapBytes := mustReadBytes(t, snap)
		if wantSnap == nil {
			wantSnap = snapBytes
		} else if !bytes.Equal(snapBytes, wantSnap) {
			t.Errorf("shards=%d: final .dcs checkpoint differs from shards=%d", shards, daemonShardCounts[0])
		}
	}
}

// TestDaemonIngestFastSlowLaneEquivalence pins that the zero-alloc decode
// lane and the reflection lane feed identical state: the same posts
// rendered plain (fast lane) and with JSON escapes (slow lane) must yield
// identical reports.
func TestDaemonIngestFastSlowLaneEquivalence(t *testing.T) {
	posts := []trace.Post{}
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for u := 0; u < 6; u++ {
		for p := 0; p < 40; p++ {
			posts = append(posts, trace.Post{
				UserID: fmt.Sprintf("user-%d", u),
				Time:   base.Add(time.Duration(u*7+p*13) * time.Hour),
			})
		}
	}
	render := []func(trace.Post) string{
		func(p trace.Post) string { // plain: fast lane
			return fmt.Sprintf("{\"user_id\":%q,\"time\":%q}", p.UserID, p.Time.Format(time.RFC3339))
		},
		func(p trace.Post) string { // escaped user id: slow lane
			return fmt.Sprintf("{\"user_id\":\"\\u0075ser-%s\",\"time\":%q}", p.UserID[5:], p.Time.Format(time.RFC3339))
		},
	}
	var want string
	for i, r := range render {
		d, err := NewDaemon(ServeConfig{Reference: testReference(t), MinPosts: 3, SkipPolish: true, RefitDebounce: -1})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, p := range posts {
			b.WriteString(r(p))
			b.WriteByte('\n')
		}
		res, err := d.Ingest(&b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != len(posts) || res.Rejected != 0 {
			t.Fatalf("lane %d: accepted/rejected = %d/%d, want %d/0", i, res.Accepted, res.Rejected, len(posts))
		}
		rep, err := d.Report()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(rep.Geo)
		if want == "" {
			want = string(got)
		} else if string(got) != want {
			t.Errorf("lane %d: report differs from plain-lane report", i)
		}
		d.Close()
	}
}

// TestDaemonIngestErrorPaths covers the request-abort HTTP statuses the
// streaming API promises: 400 on a blown malformed-line budget, 413 on an
// oversized NDJSON line — with already-accepted posts kept either way.
func TestDaemonIngestErrorPaths(t *testing.T) {
	d, err := NewDaemon(ServeConfig{
		Reference:     testReference(t),
		MaxBadLines:   2,
		RefitDebounce: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/ingest", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Budget: one good line, then three garbage lines against a budget of
	// two. The request fails 400 but the good post sticks.
	body := "{\"user_id\":\"alice\",\"time\":\"2018-03-01T12:00:00Z\"}\n" +
		"garbage one\ngarbage two\ngarbage three\n"
	if resp := post([]byte(body)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("blown budget status = %d, want 400", resp.StatusCode)
	}
	if h := d.Healthz(); h.Posts != 1 || h.Rejected != 3 {
		t.Fatalf("after budget abort: posts/rejected = %d/%d, want 1/3", h.Posts, h.Rejected)
	}

	// Direct-call error identity, for callers that branch on the sentinel.
	if _, err := d.Ingest(strings.NewReader("x\nx\nx\n")); !errors.Is(err, ErrBadLineBudget) {
		t.Fatalf("budget error = %v, want ErrBadLineBudget", err)
	}

	// Oversized line: a single line over maxIngestLine aborts with 413.
	big := bytes.Repeat([]byte("a"), maxIngestLine+16)
	line := append([]byte("{\"user_id\":\""), big...)
	line = append(line, []byte("\",\"time\":\"2018-03-01T12:00:00Z\"}\n")...)
	if resp := post(line); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized line status = %d, want 413", resp.StatusCode)
	}
	if _, err := d.Ingest(bytes.NewReader(line)); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("oversized error = %v, want ErrLineTooLong", err)
	}

	// Unlimited budget: negative MaxBadLines scans any amount of garbage.
	dU, err := NewDaemon(ServeConfig{Reference: testReference(t), MaxBadLines: -1, RefitDebounce: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dU.Close()
	res, err := dU.Ingest(strings.NewReader(strings.Repeat("garbage\n", 64)))
	if err != nil || res.Rejected != 64 {
		t.Fatalf("unlimited budget: rejected=%d err=%v, want 64/nil", res.Rejected, err)
	}
}

// TestDaemonShardedConcurrentStress hammers one daemon per shard count
// with overlapping writers (every writer touches every user, maximizing
// same-shard contention), concurrent /place and /healthz readers, and an
// aggressive compaction threshold. Run under -race this is the sharded
// hot path's consistency gate; drained totals are the assertion.
func TestDaemonShardedConcurrentStress(t *testing.T) {
	const users = 12
	const perWriter = 300
	const writers = 4
	for _, shards := range daemonShardCounts {
		d, err := NewDaemon(ServeConfig{
			Reference:     testReference(t),
			Shards:        shards,
			MinPosts:      3,
			SkipPolish:    true,
			CompactEvery:  64,
			RefitDebounce: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var b bytes.Buffer
				for i := 0; i < perWriter; i++ {
					fmt.Fprintf(&b, "{\"user_id\":\"user-%d\",\"time\":%q}\n",
						i%users, base.Add(time.Duration(w*perWriter+i)*time.Hour).Format(time.RFC3339))
					if b.Len() > 512 {
						if _, err := d.Ingest(bytes.NewReader(b.Bytes())); err != nil {
							t.Error(err)
							return
						}
						b.Reset()
					}
				}
				if _, err := d.Ingest(bytes.NewReader(b.Bytes())); err != nil {
					t.Error(err)
				}
			}(w)
		}
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					d.Place(fmt.Sprintf("user-%d", i%users))
					d.Healthz()
					if i%16 == 0 {
						d.Report() // any error is fine mid-stream
					}
				}
			}(r)
		}
		wg.Wait()
		close(stop)
		readers.Wait()

		h := d.Healthz()
		if h.Posts != writers*perWriter || h.Gen != uint64(writers*perWriter) {
			t.Errorf("shards=%d: posts/gen = %d/%d, want %d", shards, h.Posts, h.Gen, writers*perWriter)
		}
		if h.Users != users {
			t.Errorf("shards=%d: users = %d, want %d", shards, h.Users, users)
		}
		rep, err := d.Report()
		if err != nil {
			t.Fatalf("shards=%d: drained report: %v", shards, err)
		}
		if rep.Posts != writers*perWriter || rep.Users != users {
			t.Errorf("shards=%d: report posts/users = %d/%d, want %d/%d",
				shards, rep.Posts, rep.Users, writers*perWriter, users)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDaemonMetricsLatencies checks the latency and polish wiring on
// /metrics: a served request shows up in the http.*.ns histograms, a
// refit in serve.refit.ns, and the polish counters profile.zone_scans and
// profile.flat_checks are listed by those names.
func TestDaemonMetricsLatencies(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	d, err := NewDaemon(ServeConfig{Reference: testReference(t), RefitDebounce: -1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	mustPost(t, srv.URL, ndjson(loadPosts(t, writeCrowd(t, t.TempDir()))))
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	getReport(t, srv.URL)

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	for _, name := range []string{"http.ingest.ns", "http.healthz.ns", "http.report.ns", "serve.refit.ns"} {
		ls, ok := snap.Latencies[name]
		if !ok || ls.Count == 0 {
			t.Errorf("latency histogram %q missing or empty: %+v", name, ls)
		}
		if ls.Count > 0 && ls.P99 <= 0 {
			t.Errorf("latency histogram %q has no p99: %+v", name, ls)
		}
	}
	if n := snap.Counters[profile.ZoneScansCounter]; n == 0 {
		t.Errorf("counter %q reads %d after a refit", profile.ZoneScansCounter, n)
	}
	if _, ok := snap.Counters[profile.FlatChecksCounter]; !ok {
		t.Errorf("counter %q missing from /metrics", profile.FlatChecksCounter)
	}
}
