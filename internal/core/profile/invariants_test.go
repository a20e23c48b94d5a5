package profile

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"darkcrowd/internal/trace"
)

// eqOneBuilders are the ways the code turns posts into Eq. 1 user
// profiles: the store build with its default floor(sec/3600) key, the
// same build over the store of a CSV ingest (BuildUserProfilesFused), the
// store build bucketing through UTCCells(), and the streaming accumulator.
var eqOneBuilders = []struct {
	name  string
	build func(t *testing.T, posts []trace.Post, minPosts int) map[string]Profile
}{
	{"batch", func(t *testing.T, posts []trace.Post, minPosts int) map[string]Profile {
		return eqOneStoreBuild(t, posts, BuildOptions{MinPosts: minPosts, Parallelism: 3})
	}},
	{"fused", func(t *testing.T, posts []trace.Post, minPosts int) map[string]Profile {
		var buf bytes.Buffer
		if err := trace.NewDataset("", posts).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		res, err := trace.IngestCSV("eq1", buf.Bytes(), trace.IngestOptions{Workers: 3, CollectCells: true})
		if err != nil {
			t.Fatal(err)
		}
		out, err := BuildUserProfilesFused(res.Cells, BuildOptions{MinPosts: minPosts, Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}},
	{"utc-cells", func(t *testing.T, posts []trace.Post, minPosts int) map[string]Profile {
		return eqOneStoreBuild(t, posts, BuildOptions{MinPosts: minPosts, Parallelism: 3, Cells: UTCCells()})
	}},
	{"accumulator", func(t *testing.T, posts []trace.Post, minPosts int) map[string]Profile {
		acc := NewAccumulator(minPosts)
		for _, p := range posts {
			acc.Add(p.UserID, p.Time.Unix())
		}
		return activeProfiles(t, acc)
	}},
}

func eqOneStoreBuild(t *testing.T, posts []trace.Post, opts BuildOptions) map[string]Profile {
	out, err := BuildUserProfiles(trace.NewDataset("eq1", posts), opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// eqOnePosts is a seeded crowd of whole-second posts spread over a few
// weeks, dense enough that users revisit (day, hour) cells and that posts
// sit on both sides of UTC midnight.
func eqOnePosts(seed int64) []trace.Post {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2017, time.October, 20, 0, 0, 0, 0, time.UTC).Unix()
	var posts []trace.Post
	for u := 0; u < 25; u++ {
		id := fmt.Sprintf("user-%02d", u)
		for i := 0; i < 20+rng.Intn(60); i++ {
			sec := base + rng.Int63n(21*86400)
			posts = append(posts, trace.Post{UserID: id, Time: time.Unix(sec, 0).UTC()})
		}
	}
	rng.Shuffle(len(posts), func(i, j int) { posts[i], posts[j] = posts[j], posts[i] })
	return posts
}

// TestEquationOneInvariants checks two relations that follow from the
// definition of the user profile (Eq. 1, §IV) alone, on every builder:
//
//   - shifting every timestamp by h whole hours moves each activity cell
//     to a distinct cell h hours later, so the profile becomes exactly
//     Profile.Shift(h) of the original, bit for bit;
//   - a post in a (day, hour) cell the user already has adds no cell, so
//     it changes no profile.
func TestEquationOneInvariants(t *testing.T) {
	t.Parallel()
	const minPosts = 10 // every generated user has at least 20 posts
	posts := eqOnePosts(77)
	for _, b := range eqOneBuilders {
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			orig := b.build(t, posts, minPosts)
			if len(orig) != 25 {
				t.Fatalf("%d profiles, want 25", len(orig))
			}

			for _, h := range []int{1, -1, 5, -7, 23, 24, -30, 49} {
				shifted := make([]trace.Post, len(posts))
				for i, p := range posts {
					shifted[i] = trace.Post{UserID: p.UserID, Time: p.Time.Add(time.Duration(h) * time.Hour)}
				}
				got := b.build(t, shifted, minPosts)
				if len(got) != len(orig) {
					t.Fatalf("shift %d: %d profiles, want %d", h, len(got), len(orig))
				}
				for id, p := range orig {
					if want := p.Shift(h); got[id] != want {
						t.Fatalf("shift %d: user %s\n got %v\nwant %v", h, id, got[id], want)
					}
				}
			}

			// One extra post per user, at a random second inside the cell of
			// one of the user's existing posts.
			rng := rand.New(rand.NewSource(78))
			dup := append([]trace.Post(nil), posts...)
			seen := make(map[string]bool)
			for _, p := range posts {
				if seen[p.UserID] {
					continue
				}
				seen[p.UserID] = true
				cell := p.Time.Truncate(time.Hour)
				dup = append(dup, trace.Post{UserID: p.UserID, Time: cell.Add(time.Duration(rng.Intn(3600)) * time.Second)})
			}
			if got := b.build(t, dup, minPosts); !reflect.DeepEqual(got, orig) {
				t.Fatal("a post in an already-active cell changed the profiles")
			}
		})
	}
}
