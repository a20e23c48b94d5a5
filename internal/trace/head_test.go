package trace

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBuilderUserLimit drives TryUser into the ordinal ceiling through a
// small injected cap: the boundary behaviour is identical at
// math.MaxInt32, just not testable there.
func TestBuilderUserLimit(t *testing.T) {
	b := NewBuilder(0)
	b.userCap = 3
	for i := 0; i < 3; i++ {
		u, err := b.TryUser(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatalf("TryUser(%d): %v", i, err)
		}
		if u != int32(i) {
			t.Fatalf("TryUser(%d) = %d", i, u)
		}
	}
	// Re-interning an existing user is a lookup, not an allocation — it
	// must still succeed at the cap.
	if u, err := b.TryUser("u1"); err != nil || u != 1 {
		t.Fatalf("TryUser(existing) = %d, %v", u, err)
	}
	_, err := b.TryUser("u3")
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("TryUser past cap: got %v, want *LimitError", err)
	}
	if le.What != "users" || le.Limit != 3 {
		t.Fatalf("LimitError = %+v", le)
	}
	if b.NumPosts() != 0 || len(b.ids) != 3 {
		t.Fatalf("failed intern mutated the builder: %d users", len(b.ids))
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("User past cap did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "users limit") {
			t.Fatalf("panic message %v", r)
		}
	}()
	b.User("u4")
}

// TestBuilderAddLimit is the post-position twin of TestBuilderUserLimit.
func TestBuilderAddLimit(t *testing.T) {
	b := NewBuilder(0)
	b.postCap = 2
	u := b.User("alice")
	for i := 0; i < 2; i++ {
		if err := b.TryAdd(u, int64(i)); err != nil {
			t.Fatalf("TryAdd(%d): %v", i, err)
		}
	}
	err := b.TryAdd(u, 2)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("TryAdd past cap: got %v, want *LimitError", err)
	}
	if le.What != "posts" || le.Limit != 2 {
		t.Fatalf("LimitError = %+v", le)
	}
	if b.NumPosts() != 2 {
		t.Fatalf("failed add mutated the builder: %d posts", b.NumPosts())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add past cap did not panic")
		}
	}()
	b.Add(u, 2)
}

// TestShardedHeadShardInvariance is the deterministic-merge property test:
// a fixed post stream appended sequentially must compact to exactly the
// same Dataset — down to the snapshot bytes — at every shard count,
// including mid-stream compactions and a pre-existing base. The reference
// is the batch build of the same sequence: base posts, then the stream in
// append order.
func TestShardedHeadShardInvariance(t *testing.T) {
	const posts = 700
	stream := make([]Post, posts)
	for i := range stream {
		stream[i] = Post{
			UserID: fmt.Sprintf("user-%d", (i*7)%23),
			Time:   time.Unix(int64(1520000000+i*311), 0).UTC(),
		}
	}
	base := NewBuilder(0)
	for i := 0; i < 50; i++ {
		base.Add(base.User(fmt.Sprintf("base-%d", i%5)), int64(1510000000+i))
	}
	for _, withBase := range []bool{false, true} {
		ref := NewBuilder(0)
		if withBase {
			for _, p := range rows(base.Dataset("head", false)) {
				ref.Add(ref.User(p.UserID), p.Time.Unix())
			}
		}
		for _, p := range stream {
			ref.Add(ref.User(p.UserID), p.Time.Unix())
		}
		want := snapshotBytes(t, ref.Dataset("head", false))
		for _, shards := range []int{1, 2, 8, 16} {
			var hb *Dataset
			if withBase {
				hb = base.Dataset("head", false)
			}
			h := NewShardedHead("head", hb, shards)
			for i, p := range stream {
				if err := h.Append(p.UserID, p.Time.Unix()); err != nil {
					t.Fatal(err)
				}
				if i == 333 {
					h.Compact()
					if got := h.Pending(); got != 0 {
						t.Fatalf("shards=%d: Pending after Compact = %d", shards, got)
					}
				}
			}
			wantTotal := len(stream)
			if withBase {
				wantTotal += 50
			}
			if got := h.TotalPosts(); got != wantTotal {
				t.Fatalf("shards=%d: TotalPosts = %d, want %d", shards, got, wantTotal)
			}
			ds := h.Compact()
			if got := snapshotBytes(t, ds); !reflect.DeepEqual(got, want) {
				t.Errorf("base=%v shards=%d: compacted snapshot differs from the batch build", withBase, shards)
			}
			// Compacting an unchanged head returns the same immutable base.
			if again := h.Compact(); again != ds {
				t.Errorf("shards=%d: Compact with empty tails rebuilt the base", shards)
			}
		}
	}
}

func snapshotBytes(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf strings.Builder
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return []byte(buf.String())
}

// TestShardedHeadAppendBytes checks the zero-copy byte-slice append path
// lands posts identically to the string path, and that the per-append
// fast path does not allocate once the shard knows the user.
func TestShardedHeadAppendBytes(t *testing.T) {
	h := NewShardedHead("head", nil, 4)
	if err := h.AppendBytes([]byte("alice"), 100); err != nil {
		t.Fatal(err)
	}
	buf := []byte("alice")
	allocs := testing.AllocsPerRun(500, func() {
		if err := h.AppendBytes(buf, 200); err != nil {
			t.Fatal(err)
		}
	})
	// Steady-state appends only pay amortized slice growth inside the
	// shard tail; anything at or above one alloc per post means the
	// []byte→string elision regressed.
	if allocs >= 1 {
		t.Errorf("AppendBytes allocates %v per post for a known user", allocs)
	}
	ds := h.Compact()
	for _, p := range rows(ds) {
		if p.UserID != "alice" {
			t.Fatalf("unexpected user %q", p.UserID)
		}
	}
	// 1 initial + 1 AllocsPerRun warm-up + 500 measured runs.
	if ds.NumPosts() != 502 {
		t.Fatalf("compacted %d posts, want 502", ds.NumPosts())
	}
}

// TestShardedHeadLimitPropagates injects a tiny post cap into one shard's
// tail and checks the typed error surfaces through Append without
// corrupting state.
func TestShardedHeadLimitPropagates(t *testing.T) {
	h := NewShardedHead("head", nil, 1)
	h.shards[0].tail.postCap = 2
	h.shards[0].tail.userCap = 2
	if err := h.Append("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Append("b", 2); err != nil {
		t.Fatal(err)
	}
	var le *LimitError
	if err := h.Append("a", 3); !errors.As(err, &le) || le.What != "posts" {
		t.Fatalf("Append past post cap: %v", err)
	}
	if err := h.Append("c", 3); !errors.As(err, &le) || le.What != "users" {
		t.Fatalf("Append past user cap: %v", err)
	}
	if got := h.Pending(); got != 2 {
		t.Fatalf("failed appends mutated the head: Pending = %d", got)
	}
}

// TestShardedHeadConcurrentAppend hammers AppendBytes from many goroutines
// with interleaved Compact/TotalPosts calls; the drained head must hold
// every post exactly once. Run under -race this is the sharded head's
// safety gate.
func TestShardedHeadConcurrentAppend(t *testing.T) {
	const writers, perWriter = 8, 200
	for _, shards := range []int{1, 2, 8, 16} {
		h := NewShardedHead("head", nil, shards)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if err := h.AppendBytes([]byte(fmt.Sprintf("w%d-u%d", w, i%5)), int64(w*perWriter+i)); err != nil {
						t.Error(err)
						return
					}
					if i%64 == 0 {
						h.Compact()
						_ = h.TotalPosts()
						_ = h.Pending()
					}
				}
			}(w)
		}
		wg.Wait()
		ds := h.Compact()
		if ds.NumPosts() != writers*perWriter {
			t.Fatalf("shards=%d: compacted %d posts, want %d", shards, ds.NumPosts(), writers*perWriter)
		}
		got := make([]string, 0, ds.NumPosts())
		for _, p := range rows(ds) {
			got = append(got, fmt.Sprintf("%s@%d", p.UserID, p.Time.Unix()))
		}
		sort.Strings(got)
		want := make([]string, 0, writers*perWriter)
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				want = append(want, fmt.Sprintf("w%d-u%d@%d", w, i%5, w*perWriter+i))
			}
		}
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: concurrent appends lost or duplicated posts", shards)
		}
	}
}

// TestShardedHeadLaterReservationFirst appends two batches to the same
// shards with the later ticket reservation reaching the tails first: the
// earlier batch reserves its tickets, then waits, through its lock hook,
// until the later batch has been appended whole. Compact must still fold
// in ticket order, the earlier batch first, to the same snapshot bytes at
// every shard count. A window taken from each tail's first and last
// ticket is inverted here and cannot place the posts.
func TestShardedHeadLaterReservationFirst(t *testing.T) {
	batch := func(from int) (*Batch, []Post) {
		var b Batch
		var posts []Post
		for i := 0; i < 40; i++ {
			p := Post{UserID: fmt.Sprintf("user-%d", i%6), Time: time.Unix(int64(1520000000+(from+i)*97), 0).UTC()}
			b.Add([]byte(p.UserID), p.Time.Unix())
			posts = append(posts, p)
		}
		return &b, posts
	}
	var want []byte
	for _, shards := range []int{1, 2, 8, 16} {
		h := NewShardedHead("head", nil, shards)
		// An earlier fold, so this fold's tickets do not start at 1.
		for i := 0; i < 25; i++ {
			if err := h.Append(fmt.Sprintf("user-%d", i%4), int64(1510000000+i)); err != nil {
				t.Fatal(err)
			}
		}
		h.Compact()
		early, earlyPosts := batch(0)
		late, latePosts := batch(1000)
		reserved, lateDone := make(chan struct{}), make(chan struct{})
		var once sync.Once
		var mu sync.Mutex
		errc := make(chan error, 1)
		go func() {
			errc <- h.AppendBatch(early, func(int) sync.Locker {
				once.Do(func() {
					close(reserved)
					<-lateDone
				})
				return &mu
			}, nil)
		}()
		<-reserved
		if err := h.AppendBatch(late, nil, nil); err != nil {
			t.Fatal(err)
		}
		close(lateDone)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		ref := NewBuilder(0)
		for _, p := range rows(h.Base()) {
			ref.Add(ref.User(p.UserID), p.Time.Unix())
		}
		for _, p := range append(earlyPosts, latePosts...) {
			ref.Add(ref.User(p.UserID), p.Time.Unix())
		}
		got := snapshotBytes(t, h.Compact())
		if !reflect.DeepEqual(got, snapshotBytes(t, ref.Dataset("head", false))) {
			t.Errorf("shards=%d: fold is not in ticket order", shards)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: snapshot differs from shards=1", shards)
		}
	}
}

// TestShardedHeadBatchLimitPrefix fails a batch at its k-th post, a user
// new to the last shard's tail at its user ceiling, while the first
// shard's group, appended before the last's, holds later posts. Exactly
// the posts before k must be appended, and the error must be the one a
// post-by-post append returns.
func TestShardedHeadBatchLimitPrefix(t *testing.T) {
	h := NewShardedHead("head", nil, 4)
	h.LimitTails(3, 0)
	var first string
	var last []string // users of the last shard
	for i := 0; first == "" || len(last) < 4; i++ {
		switch id := fmt.Sprintf("user-%d", i); h.ShardOfString(id) {
		case 0:
			first = id
		case h.NumShards() - 1:
			last = append(last, id)
		}
	}
	var b Batch
	var posts []Post
	add := func(id string) {
		sec := int64(1520000000 + len(posts))
		b.Add([]byte(id), sec)
		posts = append(posts, Post{UserID: id, Time: time.Unix(sec, 0).UTC()})
	}
	for _, id := range last {
		add(first)
		add(id)
	}
	const k = 7 // the last shard's fourth user
	for i := 0; i < 5; i++ {
		add(first)
	}
	var le *LimitError
	if err := h.AppendBatch(&b, nil, nil); !errors.As(err, &le) || le.What != "users" || le.Limit != 3 {
		t.Fatalf("AppendBatch past the user cap: %v", err)
	}
	if got := h.Pending(); got != k {
		t.Fatalf("Pending = %d, want the %d posts before the failing one", got, k)
	}
	if got := rows(h.Compact()); !reflect.DeepEqual(got, posts[:k]) {
		t.Fatalf("compacted %d posts, want the first %d in order", len(got), k)
	}
}
