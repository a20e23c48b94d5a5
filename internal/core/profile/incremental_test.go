package profile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"darkcrowd/internal/trace"
)

// randomStream synthesizes a post stream with uneven per-user volumes —
// some users below the active threshold, heavy cell duplication, and
// pre-1970 stragglers to exercise the floor-division cell math.
func randomStream(seed int64, users, maxPosts int) []trace.Post {
	rng := rand.New(rand.NewSource(seed))
	var posts []trace.Post
	for u := 0; u < users; u++ {
		id := string(rune('a'+u%26)) + "-user"
		if u >= 26 {
			id = id + string(rune('0'+u/26))
		}
		n := 1 + rng.Intn(maxPosts)
		for i := 0; i < n; i++ {
			sec := int64(rng.Intn(40*86400)) - 5*86400 // spans pre-epoch days
			posts = append(posts, trace.Post{UserID: id, Time: time.Unix(sec, 0).UTC()})
		}
	}
	rng.Shuffle(len(posts), func(i, j int) { posts[i], posts[j] = posts[j], posts[i] })
	return posts
}

func profilesBitEqual(t *testing.T, got, want map[string]Profile) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("active users: got %d, want %d", len(got), len(want))
	}
	for id, wp := range want {
		gp, ok := got[id]
		if !ok {
			t.Fatalf("user %s missing from incremental profiles", id)
		}
		for h := range wp {
			if math.Float64bits(gp[h]) != math.Float64bits(wp[h]) {
				t.Fatalf("user %s hour %d: got %x, want %x", id, h, math.Float64bits(gp[h]), math.Float64bits(wp[h]))
			}
		}
	}
}

// streamOrders returns posts in the arrival orders the accumulator must
// be indifferent to: three shuffles, time order (every new cell appends),
// fully reversed time order (every new cell inserts at the front), and
// per-user time order with users interleaved round-robin.
func streamOrders(posts []trace.Post) map[string][]trace.Post {
	orders := make(map[string][]trace.Post)
	for _, seed := range []int64{0, 1, 2} {
		shuffled := slices.Clone(posts)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		orders[fmt.Sprintf("shuffle-%d", seed)] = shuffled
	}
	sorted := slices.Clone(posts)
	slices.SortStableFunc(sorted, func(a, b trace.Post) int { return a.Time.Compare(b.Time) })
	orders["time"] = sorted
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	orders["reversed"] = reversed
	byUser := make(map[string][]trace.Post)
	var ids []string
	for _, p := range sorted {
		if byUser[p.UserID] == nil {
			ids = append(ids, p.UserID)
		}
		byUser[p.UserID] = append(byUser[p.UserID], p)
	}
	var interleaved []trace.Post
	for len(interleaved) < len(posts) {
		for _, id := range ids {
			if q := byUser[id]; len(q) > 0 {
				interleaved = append(interleaved, q[0])
				byUser[id] = q[1:]
			}
		}
	}
	orders["interleaved"] = interleaved
	return orders
}

// activeProfiles collects the accumulator's active profiles, checking
// that NumActive counts exactly the users EachActive visits.
func activeProfiles(t testing.TB, acc *Accumulator) map[string]Profile {
	t.Helper()
	out := make(map[string]Profile, acc.NumActive())
	acc.EachActive(func(id string, p Profile, _ uint64) { out[id] = p })
	if len(out) != acc.NumActive() {
		t.Fatalf("EachActive visits %d users, NumActive = %d", len(out), acc.NumActive())
	}
	return out
}

// TestAccumulatorMatchesBatchBuild feeds random streams post-by-post in
// several arrival orders and demands the accumulator's active profiles be
// bit-identical to BuildUserProfiles over the same posts — the invariant
// the streaming daemon's equivalence guarantee rests on. A late post that
// lands in a cell its user already has must change nothing but the post
// count.
func TestAccumulatorMatchesBatchBuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		posts := randomStream(seed, 40, 60)
		ds := trace.NewDataset("stream", posts)
		want, err := BuildUserProfiles(ds, BuildOptions{MinPosts: 10})
		if err != nil {
			t.Fatal(err)
		}
		orders := streamOrders(posts)
		for name, order := range orders {
			acc := NewAccumulator(10)
			for _, p := range order {
				acc.Add(p.UserID, p.Time.Unix())
			}
			got := activeProfiles(t, acc)
			profilesBitEqual(t, got, want)
			if acc.TotalPosts() != len(posts) {
				t.Fatalf("seed %d %s: TotalPosts = %d, want %d", seed, name, acc.TotalPosts(), len(posts))
			}
		}

		// Out of order into an existing cell: after the time-ordered
		// stream, replay each user's earliest post (it is not in the
		// user's last cell whenever the user has two cells or more).
		acc := NewAccumulator(10)
		first := make(map[string]trace.Post)
		for _, p := range orders["time"] {
			acc.Add(p.UserID, p.Time.Unix())
			if _, ok := first[p.UserID]; !ok {
				first[p.UserID] = p
			}
		}
		late := slices.Clone(posts)
		for id, p := range first {
			late = append(late, p)
			v := acc.Version(id)
			if acc.Add(id, p.Time.Unix()) {
				t.Fatalf("seed %d: late post of %s into an existing cell reported a change", seed, id)
			}
			if acc.Version(id) != v {
				t.Fatalf("seed %d: late post of %s into an existing cell bumped the version", seed, id)
			}
		}
		// The replayed posts count towards the threshold like any other.
		want, err = BuildUserProfiles(trace.NewDataset("late", late), BuildOptions{MinPosts: 10})
		if err != nil {
			t.Fatal(err)
		}
		got := activeProfiles(t, acc)
		profilesBitEqual(t, got, want)
	}
}

// FuzzAccumulatorMatchesBatchBuild decodes the input into (user, second)
// posts — seconds on both sides of the epoch, a few minutes apart so
// cells repeat — feeds them one by one, and checks bit for bit that the
// profiles equal BuildUserProfiles over the same posts and that Add and
// Version move exactly when a post opens a cell its user has not seen.
func FuzzAccumulatorMatchesBatchBuild(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 12, 0, 0, 12, 0, 255, 255, 1, 0, 1})
	f.Add([]byte{2, 10, 0, 2, 9, 0, 2, 8, 0, 2, 10, 0, 3, 0, 128, 3, 255, 127, 3, 0, 128})
	f.Add(bytes.Repeat([]byte{1, 7, 200}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		const minPosts = 2
		acc := NewAccumulator(minPosts)
		seen := make(map[string]map[int64]bool)
		var posts []trace.Post
		for ; len(data) >= 3; data = data[3:] {
			id := fmt.Sprintf("u%d", data[0]%4)
			sec := int64(int16(binary.LittleEndian.Uint16(data[1:3]))) * 317
			hour, day := cellOfUnix(sec)
			key := cellKey(hour, day)
			fresh := !seen[id][key]
			if seen[id] == nil {
				seen[id] = make(map[int64]bool)
			}
			seen[id][key] = true
			v := acc.Version(id)
			if changed := acc.Add(id, sec); changed != fresh {
				t.Fatalf("post %s@%d: Add = %v, want %v", id, sec, changed, fresh)
			}
			if moved := acc.Version(id) != v; moved != fresh {
				t.Fatalf("post %s@%d: version moved %v, want %v", id, sec, moved, fresh)
			}
			posts = append(posts, trace.Post{UserID: id, Time: time.Unix(sec, 0).UTC()})
		}
		got := activeProfiles(t, acc)
		want, err := BuildUserProfiles(trace.NewDataset("fuzz", posts), BuildOptions{MinPosts: minPosts})
		if err != nil {
			if !errors.Is(err, ErrNoActivity) || len(got) != 0 {
				t.Fatalf("batch build: %v; accumulator has %d active users", err, len(got))
			}
			return
		}
		profilesBitEqual(t, got, want)
	})
}

// BenchmarkAccumulatorAdd streams one user's posts, about 5,000 distinct
// cells at two posts per cell, in time order (the append path), shuffled,
// and reversed (every new cell inserted at the front), so the cost of
// out-of-order cells is measured rather than guessed.
func BenchmarkAccumulatorAdd(b *testing.B) {
	const cells = 5000
	secs := make([]int64, 0, 2*cells)
	for c := int64(0); c < cells; c++ {
		secs = append(secs, c*3600+60, c*3600+1800)
	}
	shuffled := slices.Clone(secs)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	reversed := slices.Clone(secs)
	slices.Reverse(reversed)
	for _, bc := range []struct {
		name string
		secs []int64
	}{{"in-order", secs}, {"shuffled", shuffled}, {"reversed", reversed}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := NewAccumulator(0)
				for _, sec := range bc.secs {
					acc.Add("u", sec)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.secs)), "ns/post")
		})
	}
}

// TestAccumulatorVersioning checks the version contract: bumps exactly on
// new distinct cells, never on duplicates, and ProfileOf tracks the
// threshold.
func TestAccumulatorVersioning(t *testing.T) {
	acc := NewAccumulator(3)
	if acc.Version("u") != 0 {
		t.Fatal("unknown user has non-zero version")
	}
	if changed := acc.Add("u", 100); !changed {
		t.Fatal("first post did not change the profile")
	}
	v1 := acc.Version("u")
	if changed := acc.Add("u", 200); changed { // same (day, hour) cell
		t.Fatal("duplicate cell reported a profile change")
	}
	if acc.Version("u") != v1 {
		t.Fatal("duplicate cell bumped the version")
	}
	if _, ok := acc.ProfileOf("u"); ok {
		t.Fatal("user below threshold reported active")
	}
	if changed := acc.Add("u", 4000); !changed { // hour 1: new cell
		t.Fatal("new cell did not change the profile")
	}
	if acc.Version("u") <= v1 {
		t.Fatal("new cell did not bump the version")
	}
	p, ok := acc.ProfileOf("u")
	if !ok {
		t.Fatal("user at threshold not active")
	}
	if p[0] != 0.5 || p[1] != 0.5 {
		t.Fatalf("profile = %v, want 0.5/0.5 in hours 0 and 1", p[:2])
	}
	if !acc.Active("u") || acc.Posts("u") != 3 {
		t.Fatalf("Active/Posts bookkeeping wrong: %v %d", acc.Active("u"), acc.Posts("u"))
	}
}

// TestAccumulatorDefaultThreshold mirrors BuildOptions: MinPosts 0 means
// the paper's 30-post default.
func TestAccumulatorDefaultThreshold(t *testing.T) {
	if got := NewAccumulator(0).MinPosts(); got != DefaultMinPosts {
		t.Fatalf("default threshold = %d, want %d", got, DefaultMinPosts)
	}
}
