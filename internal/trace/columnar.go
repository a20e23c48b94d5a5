package trace

// The columnar index. The paper's Twitter substrate is 6,058,635 users
// (Table I); at that scale the row-oriented []Post representation makes
// every per-user operation — grouping, counting, the active-user
// threshold, profile building — re-scan and re-allocate. Store is a
// compact, read-only, column-oriented index of a Dataset:
//
//   - user IDs are interned once into a dense, sorted dictionary
//     (ids / lookup), so hot loops carry int32 user indices instead of
//     hashing strings;
//   - timestamps live in an int64 epoch-seconds column (when), post-parallel
//     with Posts;
//   - posts are grouped per user CSR-style: posts[offsets[u]:offsets[u+1]]
//     lists the dataset positions of user u's posts, in dataset order.
//
// A Store comes from exactly one of three places: IngestCSV builds it
// during the parse merge, ReadSnapshotBytes decodes it from a .dcs file,
// and Dataset.Index builds it from rows for every other dataset (the
// synthetic generators' Builder output, ShardedHead folds, filtered
// views). Dataset methods (Users, ByUser, PostCounts, FilterUsers,
// FilterMinPosts, Window) are views over these columns. The Store itself
// is immutable after construction, so it is safe to share across
// goroutines; building it lazily via Dataset.Index is not goroutine-safe
// (same as any lazy cache — index once before fanning out).

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Store is the columnar index of a Dataset. Zero value is an empty store;
// build one with Dataset.Index or a Builder.
type Store struct {
	ids     []string         // dense user index -> user ID, sorted ascending
	lookup  map[string]int32 // user ID -> dense user index
	userOf  []int32          // per post, in dataset order: dense user index
	when    []int64          // per post, in dataset order: Unix seconds (UTC)
	posts   []int32          // dataset positions grouped by user (CSR payload)
	offsets []int32          // user u owns posts[offsets[u]:offsets[u+1]]

	// sortedByTime records whether the indexed Posts were in chronological
	// order, enabling binary-searched Window.
	sortedByTime bool
}

// Index returns the dataset's columnar index, building it on first use.
// The index is cached; it is rebuilt automatically when len(d.Posts) has
// changed since the last build, and SortByTime drops it. Other in-place
// edits that keep the count are not detected: build a new Dataset
// instead. The first Index call on a given dataset is not safe to race
// with other calls.
func (d *Dataset) Index() *Store {
	if d.idx != nil && len(d.idx.userOf) == len(d.Posts) {
		return d.idx
	}
	d.idx = buildStore(d.Posts)
	return d.idx
}

// buildStore constructs the columnar index from a post slice: one interning
// pass, a dictionary sort, then a counting-sort scatter into CSR layout.
func buildStore(posts []Post) *Store {
	s := &Store{
		lookup: make(map[string]int32),
		userOf: make([]int32, len(posts)),
		when:   make([]int64, len(posts)),
	}
	// Pass 1: intern users in first-appearance order, fill the post-parallel
	// columns, detect chronological order.
	var firstIDs []string
	var counts []int32
	s.sortedByTime = true
	for i := range posts {
		p := &posts[i]
		u, ok := s.lookup[p.UserID]
		if !ok {
			u = int32(len(firstIDs))
			s.lookup[p.UserID] = u
			firstIDs = append(firstIDs, p.UserID)
			counts = append(counts, 0)
		}
		s.userOf[i] = u
		s.when[i] = p.Time.Unix()
		counts[u]++
		if i > 0 && p.Time.Before(posts[i-1].Time) {
			s.sortedByTime = false
		}
	}
	s.finish(firstIDs, counts)
	return s
}

// finish completes a provisionally-filled store: lookup maps each user ID
// to its first-appearance index, firstIDs lists the IDs in that order,
// counts holds per-provisional-user post counts, and userOf/when/
// sortedByTime are already post-parallel. It sorts the dictionary, remaps
// userOf to sorted ranks in place, and scatters the CSR payload. Shared
// by buildStore and the sharded parallel reader's merge, so both produce
// bit-identical stores.
func (s *Store) finish(firstIDs []string, counts []int32) {
	// Sort the dictionary and remap the provisional indices to sorted ones,
	// so user index order == lexicographic user ID order everywhere.
	nu := len(firstIDs)
	perm := make([]int32, nu) // rank -> provisional index
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool { return firstIDs[perm[a]] < firstIDs[perm[b]] })
	rank := make([]int32, nu) // provisional index -> rank
	s.ids = make([]string, nu)
	sortedCounts := make([]int32, nu)
	for r, prov := range perm {
		rank[prov] = int32(r)
		s.ids[r] = firstIDs[prov]
		s.lookup[firstIDs[prov]] = int32(r)
		sortedCounts[r] = counts[prov]
	}
	for i, prov := range s.userOf {
		s.userOf[i] = rank[prov]
	}
	// CSR offsets (prefix sums) and scatter, preserving dataset order
	// within each user.
	s.offsets = make([]int32, nu+1)
	for u, c := range sortedCounts {
		s.offsets[u+1] = s.offsets[u] + c
	}
	s.posts = make([]int32, len(s.userOf))
	cursor := make([]int32, nu)
	copy(cursor, s.offsets[:nu])
	for i, u := range s.userOf {
		s.posts[cursor[u]] = int32(i)
		cursor[u]++
	}
}

// NumUsers returns the number of distinct users.
func (s *Store) NumUsers() int { return len(s.ids) }

// NumPosts returns the number of indexed posts.
func (s *Store) NumPosts() int { return len(s.userOf) }

// UserID returns the user ID at dense index u (indices are sorted by ID).
func (s *Store) UserID(u int) string { return s.ids[u] }

// Lookup returns the dense index of a user ID.
func (s *Store) Lookup(id string) (int, bool) {
	u, ok := s.lookup[id]
	return int(u), ok
}

// Count returns the number of posts of the user at dense index u.
func (s *Store) Count(u int) int {
	return int(s.offsets[u+1] - s.offsets[u])
}

// SortedByTime reports whether the indexed posts were chronologically
// ordered.
func (s *Store) SortedByTime() bool { return s.sortedByTime }

// AppendUserTimes appends the Unix-second timestamps of user u's posts (in
// dataset order) to buf and returns it — the zero-allocation feed for
// profile building when the caller reuses buf across users.
func (s *Store) AppendUserTimes(buf []int64, u int) []int64 {
	for _, pos := range s.posts[s.offsets[u]:s.offsets[u+1]] {
		buf = append(buf, s.when[pos])
	}
	return buf
}

// LimitError reports that a Builder hit a columnar capacity ceiling: the
// store carries user ordinals and post positions as int32, so interning
// user number 2^31 (or recording post number 2^31) would silently wrap the
// ordinal and scatter that user's posts into another user's CSR range.
// The Builder refuses instead.
type LimitError struct {
	// What names the exhausted dimension: "users" or "posts".
	What string
	// Limit is the capacity that was hit.
	Limit int
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("trace: builder %s limit reached (%d): int32 ordinals would wrap and corrupt the columnar store", e.What, e.Limit)
}

// Builder accumulates an activity trace column-wise — int32 user indices
// and int64 epoch seconds instead of (string, time.Time) rows — and
// materializes a Dataset once at the end. The synthetic crowd generator
// writes straight into a Builder, which keeps its per-post hot loop free of
// string hashing and time.Time construction.
//
// Both dimensions are capped at math.MaxInt32 (the ordinal width of the
// columnar store); TryUser/TryAdd return a *LimitError at the ceiling,
// User/Add panic with the same message.
type Builder struct {
	ids    []string
	lookup map[string]int32
	userOf []int32
	when   []int64

	// userCap/postCap are the ordinal ceilings — math.MaxInt32 when zero.
	// Tests inject small caps to exercise the boundary without interning
	// two billion users.
	userCap int
	postCap int
}

// NewBuilder returns a Builder, preallocating for postHint posts (0 is
// fine).
func NewBuilder(postHint int) *Builder {
	return &Builder{
		lookup: make(map[string]int32),
		userOf: make([]int32, 0, postHint),
		when:   make([]int64, 0, postHint),
	}
}

func (b *Builder) userLimit() int {
	if b.userCap > 0 {
		return b.userCap
	}
	return math.MaxInt32
}

func (b *Builder) postLimit() int {
	if b.postCap > 0 {
		return b.postCap
	}
	return math.MaxInt32
}

// TryUser interns a user ID, returning its dense index for Add. Interning
// once per user moves the string hashing out of the per-post loop. When
// interning one more user would overflow the int32 ordinal space it returns
// a *LimitError and interns nothing.
func (b *Builder) TryUser(id string) (int32, error) {
	if u, ok := b.lookup[id]; ok {
		return u, nil
	}
	if len(b.ids) >= b.userLimit() {
		return 0, &LimitError{What: "users", Limit: b.userLimit()}
	}
	u := int32(len(b.ids))
	b.lookup[id] = u
	b.ids = append(b.ids, id)
	return u, nil
}

// TryUserBytes is TryUser for callers holding the ID as a byte slice (the
// streaming daemon's NDJSON fast path): the lookup is allocation-free —
// Go's map index elides the []byte→string conversion — and the ID is only
// copied to a string the first time the user appears.
func (b *Builder) TryUserBytes(id []byte) (int32, error) {
	if u, ok := b.lookup[string(id)]; ok {
		return u, nil
	}
	return b.TryUser(string(id))
}

// User is TryUser for callers with bounded inputs (the synthetic
// generators); it panics with a clear message instead of wrapping the
// ordinal if the builder is full.
func (b *Builder) User(id string) int32 {
	u, err := b.TryUser(id)
	if err != nil {
		panic(err.Error())
	}
	return u
}

// TryAdd records one post: the interned user posted at the given Unix
// second. When recording one more post would overflow the int32 position
// space of the columnar store it returns a *LimitError and records nothing.
func (b *Builder) TryAdd(user int32, unixSec int64) error {
	if len(b.userOf) >= b.postLimit() {
		return &LimitError{What: "posts", Limit: b.postLimit()}
	}
	b.userOf = append(b.userOf, user)
	b.when = append(b.when, unixSec)
	return nil
}

// Add is TryAdd for callers with bounded inputs; it panics with a clear
// message instead of corrupting the store if the builder is full.
func (b *Builder) Add(user int32, unixSec int64) {
	if err := b.TryAdd(user, unixSec); err != nil {
		panic(err.Error())
	}
}

// NumPosts returns the number of posts recorded so far.
func (b *Builder) NumPosts() int { return len(b.userOf) }

// Dataset materializes the accumulated columns into a Dataset. When
// sortByTime is set the posts are ordered chronologically (stable, so
// same-instant posts keep insertion order — matching Dataset.SortByTime).
func (b *Builder) Dataset(name string, sortByTime bool) *Dataset {
	d := &Dataset{Name: name, Posts: make([]Post, len(b.userOf))}
	for i := range b.userOf {
		d.Posts[i] = Post{UserID: b.ids[b.userOf[i]], Time: time.Unix(b.when[i], 0).UTC()}
	}
	if sortByTime {
		d.SortByTime()
	}
	return d
}
