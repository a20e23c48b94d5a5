package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"darkcrowd/internal/trace"
)

// chunkMinPosts is the active-user threshold of the chunk tests: low
// enough that a few hundred posts of the test crowd make a crowd.
const chunkMinPosts = 3

// prefixGeo runs the batch pipeline over posts and returns its marshalled
// Geolocation.
func prefixGeo(t *testing.T, dir string, posts []trace.Post) string {
	t.Helper()
	path := filepath.Join(dir, "prefix.csv")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.NewDataset("prefix", posts).WriteCSV(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Geolocate(Config{TracePath: path, Reference: testReference(t), ReferenceID: "test", MinPosts: chunkMinPosts})
	if err != nil {
		t.Fatal(err)
	}
	return geoJSON(t, res)
}

// TestDaemonIngestMidChunkErrors fails one request at a line k inside its
// one chunk, after lines spread over every shard: on a blown malformed-line
// budget, on an oversized line, and on a head tail at its post ceiling
// (trace.ShardedHead.LimitTails), where shards appended before the full
// one hold lines after k. Exactly the posts before k must be applied: the
// result and Healthz count them, the drained report equals a batch
// Geolocate of them, and the .dcs Close writes equals that of a daemon fed
// only them.
func TestDaemonIngestMidChunkErrors(t *testing.T) {
	dir := t.TempDir()
	rows := loadPosts(t, writeCrowd(t, dir))[:900]
	newDaemon := func(name string) *Daemon {
		d, err := NewDaemon(ServeConfig{
			Reference:     testReference(t),
			MinPosts:      chunkMinPosts,
			MaxBadLines:   2,
			SnapshotPath:  filepath.Join(dir, name+".dcs"),
			RefitDebounce: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// The post cap: the first line that finds its shard's tail full is k.
	const postCap = 40
	probe := newDaemon("probe")
	seen := make([]int, probe.head.NumShards())
	k := -1
	for i, p := range rows {
		s := probe.head.ShardOfString(p.UserID)
		if seen[s]++; seen[s] > postCap {
			k = i
			break
		}
	}
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	if k < 100 || k >= maxChunk {
		t.Fatalf("failing line %d is not inside the first chunk", k)
	}
	wantGeo := prefixGeo(t, dir, rows[:k])

	ref := newDaemon("ref")
	if _, err := ref.Ingest(bytes.NewReader(ndjson(rows[:k]))); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	wantSnap := mustReadBytes(t, filepath.Join(dir, "ref.dcs"))

	oversized := append([]byte(`{"user_id":"`), bytes.Repeat([]byte("a"), maxIngestLine+16)...)
	oversized = append(oversized, "\",\"time\":\"2018-03-01T12:00:00Z\"}\n"...)
	cases := []struct {
		name     string
		insert   []byte // lines inserted before rows[k]
		after    []byte // lines inserted after rows[k]
		postCap  int
		rejected int
		check    func(error) bool
	}{
		{name: "budget", insert: []byte("garbage\ngarbage\ngarbage\n"), rejected: 3,
			check: func(err error) bool { return errors.Is(err, ErrBadLineBudget) }},
		{name: "oversized", insert: oversized,
			check: func(err error) bool { return errors.Is(err, ErrLineTooLong) }},
		// A malformed line after the failing one is never reached, so it
		// is not counted.
		{name: "limit", insert: []byte("garbage\n"), after: []byte("garbage\n"), postCap: postCap, rejected: 1, check: func(err error) bool {
			var le *trace.LimitError
			return errors.As(err, &le) && le.What == "posts" && le.Limit == postCap
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newDaemon(c.name)
			if c.postCap > 0 {
				d.head.LimitTails(0, c.postCap)
			}
			body := append(ndjson(rows[:k]), c.insert...)
			body = append(body, ndjson(rows[k:k+1])...)
			body = append(body, c.after...)
			body = append(body, ndjson(rows[k+1:])...)
			res, err := d.Ingest(bytes.NewReader(body))
			if !c.check(err) {
				t.Fatalf("Ingest error = %v", err)
			}
			if res.Accepted != k || res.Rejected != c.rejected {
				t.Errorf("accepted/rejected = %d/%d, want %d/%d", res.Accepted, res.Rejected, k, c.rejected)
			}
			if h := d.Healthz(); h.Posts != k || h.Rejected != uint64(c.rejected) {
				t.Errorf("healthz posts/rejected = %d/%d, want %d/%d", h.Posts, h.Rejected, k, c.rejected)
			}
			rep, err := d.Report()
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := json.Marshal(rep.Geo); string(got) != wantGeo {
				t.Error("drained report differs from the batch run over the lines before the failing one")
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustReadBytes(t, filepath.Join(dir, c.name+".dcs")), wantSnap) {
				t.Error(".dcs differs from a daemon fed only the lines before the failing one")
			}
		})
	}
}

// FuzzDaemonArrivalOrder is the arrival-order metamorphic relation: the
// bursty test crowd, permuted by a seed and posted in requests of random
// sizes at a random shard count and fold threshold, drains to the batch
// report of the same posts. One user's exact repeat and an earlier post
// arrive right after a post of theirs, in one request and so in one shard
// group of one chunk, so a chunk meets a duplicate cell and an
// out-of-order post of one user. After every request, the folded base
// holds a multiple of the fold threshold.
func FuzzDaemonArrivalOrder(f *testing.F) {
	dir := f.TempDir()
	path := writeCrowd(f, dir)
	rows := withBursts(f, path)
	_, wantGeo := batchGeo(f, path)
	// trio: a post with an exact repeat, the repeat, and an earlier post of
	// the same user, in that order.
	var trio [3]int
	firstAt := map[string]int{}
	for i, p := range rows {
		j, ok := firstAt[p.UserID]
		if !ok {
			firstAt[p.UserID] = i
			continue
		}
		if i > 0 && rows[i-1] == p && rows[j].Time.Before(p.Time) {
			trio = [3]int{i - 1, i, j}
			break
		}
	}
	if trio == [3]int{} {
		f.Fatal("the bursty crowd has no exact repeat")
	}
	f.Add(int64(1), uint8(0), uint16(64))
	f.Add(int64(2), uint8(1), uint16(1))
	f.Add(int64(3), uint8(2), uint16(700))
	f.Add(int64(4), uint8(3), uint16(17))
	f.Fuzz(func(t *testing.T, seed int64, shards uint8, maxReq uint16) {
		rng := rand.New(rand.NewSource(seed))
		var rest []trace.Post
		for i, p := range rows {
			if i != trio[0] && i != trio[1] && i != trio[2] {
				rest = append(rest, p)
			}
		}
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		// Chunks end at request ends and fold thresholds; keep the trio
		// clear of both.
		every := 64 + rng.Intn(512)
		at := rng.Intn(len(rest) + 1)
		if at%every > every-3 {
			at -= at % every
		}
		posts := append(append(append([]trace.Post(nil), rest[:at]...),
			rows[trio[0]], rows[trio[1]], rows[trio[2]]), rest[at:]...)
		d, err := NewDaemon(ServeConfig{
			Reference:     testReference(t),
			Shards:        daemonShardCounts[int(shards)%len(daemonShardCounts)],
			CompactEvery:  every,
			RefitDebounce: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		size := 1 + int(maxReq)%1000
		for i := 0; i < len(posts); {
			end := min(i+1+rng.Intn(size), len(posts))
			if end > at && end < at+3 {
				end = at + 3
			}
			if _, err := d.Ingest(bytes.NewReader(ndjson(posts[i:end]))); err != nil {
				t.Fatal(err)
			}
			// At one connection a chunk ends at the fold threshold, so
			// every fold takes exactly CompactEvery posts.
			if base := d.head.Base(); base != nil && base.NumPosts()%every != 0 {
				t.Fatalf("seed %d: folded %d posts, not a multiple of %d", seed, base.NumPosts(), every)
			}
			i = end
		}
		rep, err := d.Report()
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(rep.Geo); string(got) != wantGeo {
			t.Errorf("seed %d: drained report differs from the batch run", seed)
		}
		if rep.Gen != uint64(len(rows)) || rep.Posts != len(rows) {
			t.Errorf("seed %d: gen/posts = %d/%d, want %d", seed, rep.Gen, rep.Posts, len(rows))
		}
	})
}
