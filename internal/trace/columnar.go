package trace

// The columnar store. The paper's Twitter substrate is 6,058,635 users
// (Table I); at that scale a row-oriented []Post (40 B a post, a string
// header and a time.Time) makes every per-user operation — grouping,
// counting, the active-user threshold, profile building — re-scan and
// re-allocate. Store is the one in-memory form of a trace: a Dataset is a
// name, optional ground truth and one immutable Store.
//
//   - user IDs are interned once into a dense, sorted dictionary (ids,
//     binary-searched by Lookup), so hot loops carry int32 user indices
//     instead of hashing strings;
//   - timestamps live in an int64 epoch-seconds column (when) and a
//     sparse sub-second column: the ascending positions of the posts with
//     a fractional second (nanoAt) and their nanoseconds (nanoNS) — the
//     layout of the .dcs NANO section — so every instant round-trips
//     exactly while whole-second traces pay nothing for it;
//   - posts are grouped per user CSR-style: posts[offsets[u]:offsets[u+1]]
//     lists the dataset positions of user u's posts, in dataset order.
//
// Every constructor — IngestCSV's merge, ReadSnapshotBytes, NewDataset,
// Builder.Dataset, ShardedHead.Compact and the derived-dataset methods —
// fills these columns directly; rows exist only as values handed out by
// Dataset.Post. A Store never changes after construction, so it is safe
// to share across goroutines without coordination.

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Store is the columnar form of a Dataset. Build one through a Dataset
// constructor; Dataset.Index returns it.
type Store struct {
	ids     []string // dense user index -> user ID, sorted ascending
	userOf  []int32  // per post, in dataset order: dense user index
	when    []int64  // per post, in dataset order: Unix seconds (floor)
	nanoAt  []int32  // ascending positions of the posts with sub-second parts
	nanoNS  []int32  // parallel to nanoAt: nanoseconds, in (0, 1e9)
	posts   []int32  // dataset positions grouped by user (CSR payload)
	offsets []int32  // user u owns posts[offsets[u]:offsets[u+1]]

	// sortedByTime records whether the posts are in chronological order.
	sortedByTime bool
}

// emptyStore backs the zero Dataset.
var emptyStore = &Store{offsets: []int32{0}, sortedByTime: true}

// Index returns the dataset's columnar store. It is built once, when the
// dataset is constructed, and never changes.
func (d *Dataset) Index() *Store {
	if d.s == nil {
		return emptyStore
	}
	return d.s
}

// buildStore constructs the store of a row slice, keeping the row order.
func buildStore(posts []Post) *Store {
	index := make(map[string]int32)
	var ids []string
	userOf := make([]int32, len(posts))
	when := make([]int64, len(posts))
	var nanoAt, nanoNS []int32
	for i := range posts {
		p := &posts[i]
		u, ok := index[p.UserID]
		if !ok {
			u = int32(len(ids))
			index[p.UserID] = u
			ids = append(ids, p.UserID)
		}
		userOf[i] = u
		when[i] = p.Time.Unix()
		if ns := p.Time.Nanosecond(); ns != 0 {
			nanoAt = append(nanoAt, int32(i))
			nanoNS = append(nanoNS, int32(ns))
		}
	}
	return newStore(ids, userOf, when, nanoAt, nanoNS)
}

// newStore completes provisional columns into a Store. ids lists distinct
// user IDs in any order (entries no post refers to are dropped); userOf
// indexes ids and is remapped in place to sorted dictionary ranks; when and
// the sparse nanoAt/nanoNS column are taken over as they are. ids is not
// modified. Every constructor funnels through here, so equal post
// sequences give identical stores whatever path built them.
func newStore(ids []string, userOf []int32, when []int64, nanoAt, nanoNS []int32) *Store {
	counts := make([]int32, len(ids))
	for _, u := range userOf {
		counts[u]++
	}
	// The used users, ordered by ID, so user index order == lexicographic
	// user ID order everywhere. Derived stores pass an already sorted
	// dictionary and skip the sort.
	perm := make([]int32, 0, len(ids))
	sorted := true
	for u, c := range counts {
		if c == 0 {
			continue
		}
		if n := len(perm); n > 0 && ids[perm[n-1]] >= ids[u] {
			sorted = false
		}
		perm = append(perm, int32(u))
	}
	if !sorted {
		sort.Slice(perm, func(a, b int) bool { return ids[perm[a]] < ids[perm[b]] })
	}
	nu := len(perm)
	s := &Store{
		ids:     make([]string, nu),
		userOf:  userOf,
		when:    when,
		nanoAt:  nanoAt,
		nanoNS:  nanoNS,
		offsets: make([]int32, nu+1),
	}
	rank := make([]int32, len(ids)) // provisional index -> rank
	for r, prov := range perm {
		rank[prov] = int32(r)
		s.ids[r] = ids[prov]
		s.offsets[r+1] = s.offsets[r] + counts[prov]
	}
	// A sorted dictionary without unused entries is its own ranking.
	if !sorted || nu < len(ids) {
		for i, prov := range userOf {
			userOf[i] = rank[prov]
		}
	}
	// Scatter the CSR payload, preserving dataset order within each user.
	s.posts = make([]int32, len(userOf))
	cursor := make([]int32, nu)
	copy(cursor, s.offsets[:nu])
	for i, u := range userOf {
		s.posts[cursor[u]] = int32(i)
		cursor[u]++
	}
	s.sortedByTime = chronological(when, nanoAt, nanoNS)
	return s
}

// nanoCursor reads a sparse sub-second column in position order: next(i)
// returns post i's nanoseconds, called for i = 0, 1, 2, ... in turn.
type nanoCursor struct {
	at, ns []int32
	j      int
}

func (c *nanoCursor) next(i int) int32 {
	if c.j < len(c.at) && int(c.at[c.j]) == i {
		c.j++
		return c.ns[c.j-1]
	}
	return 0
}

// chronological reports whether the instants (seconds plus the sparse
// sub-second column) are non-decreasing.
func chronological(when []int64, nanoAt, nanoNS []int32) bool {
	c := nanoCursor{at: nanoAt, ns: nanoNS}
	prevNS := int32(0)
	for i := range when {
		ns := c.next(i)
		if i > 0 && (when[i] < when[i-1] || (when[i] == when[i-1] && ns < prevNS)) {
			return false
		}
		prevNS = ns
	}
	return true
}

// nano returns the sub-second part of post i.
func (s *Store) nano(i int) int32 {
	if len(s.nanoAt) == 0 {
		return 0
	}
	j := sort.Search(len(s.nanoAt), func(j int) bool { return int(s.nanoAt[j]) >= i })
	if j < len(s.nanoAt) && int(s.nanoAt[j]) == i {
		return s.nanoNS[j]
	}
	return 0
}

// time returns the exact instant of post i, in UTC.
func (s *Store) time(i int) time.Time {
	return time.Unix(s.when[i], int64(s.nano(i))).UTC()
}

// post materializes row i.
func (s *Store) post(i int) Post {
	return Post{UserID: s.ids[s.userOf[i]], Time: s.time(i)}
}

// before reports whether post i is strictly earlier than (sec, ns).
func (s *Store) before(i int, sec int64, ns int32) bool {
	return s.when[i] < sec || (s.when[i] == sec && s.nano(i) < ns)
}

// subset builds the store of the posts keep accepts, in dataset order.
// The dictionary is already sorted, so only users left without posts
// drop out.
func (s *Store) subset(keep func(i int) bool) *Store {
	var userOf []int32
	var when []int64
	var nanoAt, nanoNS []int32
	c := nanoCursor{at: s.nanoAt, ns: s.nanoNS}
	for i := range s.userOf {
		ns := c.next(i)
		if !keep(i) {
			continue
		}
		if ns != 0 {
			nanoAt = append(nanoAt, int32(len(when)))
			nanoNS = append(nanoNS, ns)
		}
		userOf = append(userOf, s.userOf[i])
		when = append(when, s.when[i])
	}
	return newStore(s.ids, userOf, when, nanoAt, nanoNS)
}

// permute builds the store holding post order[k] at position k.
func (s *Store) permute(order []int32) *Store {
	userOf := make([]int32, len(order))
	when := make([]int64, len(order))
	var nanoAt, nanoNS []int32
	for k, i := range order {
		userOf[k] = s.userOf[i]
		when[k] = s.when[i]
		if ns := s.nano(int(i)); ns != 0 {
			nanoAt = append(nanoAt, int32(k))
			nanoNS = append(nanoNS, ns)
		}
	}
	return newStore(s.ids, userOf, when, nanoAt, nanoNS)
}

// NumUsers returns the number of distinct users.
func (s *Store) NumUsers() int { return len(s.ids) }

// NumPosts returns the number of indexed posts.
func (s *Store) NumPosts() int { return len(s.userOf) }

// UserID returns the user ID at dense index u (indices are sorted by ID).
func (s *Store) UserID(u int) string { return s.ids[u] }

// Lookup returns the dense index of a user ID.
func (s *Store) Lookup(id string) (int, bool) {
	u := sort.SearchStrings(s.ids, id)
	return u, u < len(s.ids) && s.ids[u] == id
}

// Count returns the number of posts of the user at dense index u.
func (s *Store) Count(u int) int {
	return int(s.offsets[u+1] - s.offsets[u])
}

// SortedByTime reports whether the posts are in chronological order.
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

// room returns how many more posts the builder surely takes: each may
// intern a new user, so it is the smaller of the two ordinal rooms.
func (b *Builder) room() int {
	return min(b.userLimit()-len(b.ids), b.postLimit()-len(b.userOf))
}

// Dataset builds a Dataset from the accumulated columns; the builder stays
// usable. When sortByTime is set the posts are ordered chronologically
// (stable, so same-instant posts keep insertion order — matching
// Dataset.SortedByTime).
func (b *Builder) Dataset(name string, sortByTime bool) *Dataset {
	n := len(b.userOf)
	userOf := make([]int32, n)
	when := make([]int64, n)
	if sortByTime {
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		sort.SliceStable(order, func(x, y int) bool { return b.when[order[x]] < b.when[order[y]] })
		for k, i := range order {
			userOf[k], when[k] = b.userOf[i], b.when[i]
		}
	} else {
		copy(userOf, b.userOf)
		copy(when, b.when)
	}
	return &Dataset{Name: name, s: newStore(b.ids, userOf, when, nil, nil)}
}
