package profile

import (
	"math"
	"math/rand"
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

// TestAccumulatorMatchesBatchBuild feeds random streams post-by-post in
// several shuffled orders and demands the accumulator's active profiles be
// bit-identical to BuildUserProfiles over the same posts — the invariant
// the streaming daemon's equivalence guarantee rests on.
func TestAccumulatorMatchesBatchBuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		posts := randomStream(seed, 40, 60)
		ds := trace.NewDataset("stream", posts)
		want, err := BuildUserProfiles(ds, BuildOptions{MinPosts: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range []int64{0, 1, 2} {
			shuffled := make([]trace.Post, len(posts))
			copy(shuffled, posts)
			rand.New(rand.NewSource(order)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			acc := NewAccumulator(10)
			for _, p := range shuffled {
				acc.Add(p.UserID, p.Time.Unix())
			}
			got, _ := acc.ActiveProfiles()
			profilesBitEqual(t, got, want)
			if acc.TotalPosts() != len(posts) {
				t.Fatalf("TotalPosts = %d, want %d", acc.TotalPosts(), len(posts))
			}
		}
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
