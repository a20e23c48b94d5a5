package profile

import "slices"

// Incremental profile accumulation for the streaming ingest daemon. The
// batch builder (BuildUserProfiles) derives each user's Eq. 1 profile from
// scratch: sort the packed epochDay*24+h cell keys, count distinct cells
// per hour, divide. Accumulator maintains exactly those integer counts
// post-by-post — a per-user sorted set of seen cell keys, the per-hour
// distinct-cell tally, and the distinct total — and hands them to the
// same fromCounts division as the batch build, so its profiles are
// bit-identical to the batch build over the same posts, in any arrival
// order.
//
// Cost model. A user's cell set is a sorted []int64 of distinct keys, 8
// bytes per cell. A post whose cell lies past the user's last cell — the
// common case, since a user's posts mostly arrive in time order — is an
// append: amortised O(1). Any other post is a binary search, O(log n) for
// a user with n distinct cells; a hit is a duplicate cell, and a miss
// inserts the key, a memmove of at most 8n bytes, so O(log n + n).
//
// The set is kept here rather than derived from the daemon's trace head:
// the head folds its tail into an immutable base every 65,536 posts
// (pipeline.DefaultCompactEvery), so testing a cell for newness against
// it would mean searching the user's base history and coupling trace to
// profile.
//
// Accumulator is not goroutine-safe; the daemon serializes access under
// its state lock.

// userCells is one user's running cell tally.
type userCells struct {
	posts    int     // raw post count (the MinPosts threshold input)
	cells    []int64 // distinct packed cell keys, ascending
	hours    [HoursPerDay]int32
	distinct int    // number of distinct cells = sum(hours)
	version  uint64 // bumped whenever the profile's value changes
}

// Accumulator builds Eq. 1 user profiles incrementally, one post at a
// time. The zero value is not usable; construct with NewAccumulator.
type Accumulator struct {
	minPosts int
	users    map[string]*userCells
	posts    int
	active   int // users with at least max(minPosts, 1) posts
}

// NewAccumulator returns an empty accumulator with the given active-user
// threshold (0 = DefaultMinPosts, matching BuildOptions.MinPosts).
func NewAccumulator(minPosts int) *Accumulator {
	if minPosts == 0 {
		minPosts = DefaultMinPosts
	}
	return &Accumulator{minPosts: minPosts, users: make(map[string]*userCells)}
}

// MinPosts returns the active-user threshold.
func (a *Accumulator) MinPosts() int { return a.minPosts }

// Add records one post by userID at the given Unix second (UTC cell frame,
// like the batch builder's default). It reports whether the user's profile
// changed value — i.e. the post opened a previously unseen (day, hour)
// activity cell; duplicate cells change only the post count.
func (a *Accumulator) Add(userID string, unixSec int64) bool {
	uc := a.users[userID]
	if uc == nil {
		uc = &userCells{}
		a.users[userID] = uc
	}
	return a.add(uc, unixSec)
}

// AddBytes is Add for callers holding the user ID as a byte slice (the
// daemon's NDJSON fast path): the map lookup elides the []byte→string
// conversion, so the ID is only copied when the user is new.
func (a *Accumulator) AddBytes(userID []byte, unixSec int64) bool {
	uc := a.users[string(userID)]
	if uc == nil {
		uc = &userCells{}
		a.users[string(userID)] = uc
	}
	return a.add(uc, unixSec)
}

func (a *Accumulator) add(uc *userCells, unixSec int64) bool {
	uc.posts++
	a.posts++
	// A user's first post always opens a cell, so a user is active from
	// the post that reaches the threshold on.
	if uc.posts == max(a.minPosts, 1) {
		a.active++
	}
	hour, day := cellOfUnix(unixSec)
	key := cellKey(hour, day)
	if n := len(uc.cells); n == 0 || key > uc.cells[n-1] {
		uc.cells = append(uc.cells, key)
	} else {
		i, found := slices.BinarySearch(uc.cells, key)
		if found {
			return false
		}
		uc.cells = slices.Insert(uc.cells, i, key)
	}
	uc.hours[hour]++
	uc.distinct++
	uc.version++
	return true
}

// Posts returns userID's raw post count (0 for unknown users).
func (a *Accumulator) Posts(userID string) int {
	if uc := a.users[userID]; uc != nil {
		return uc.posts
	}
	return 0
}

// Version returns userID's profile version: it changes exactly when the
// profile's value does, so (userID, version) keys derived results such as
// cached zone placements. Unknown users have version 0.
func (a *Accumulator) Version(userID string) uint64 {
	if uc := a.users[userID]; uc != nil {
		return uc.version
	}
	return 0
}

// TotalPosts returns the number of posts recorded so far.
func (a *Accumulator) TotalPosts() int { return a.posts }

// NumUsers returns the number of distinct users seen so far.
func (a *Accumulator) NumUsers() int { return len(a.users) }

// NumActive returns the number of active users, those EachActive visits.
func (a *Accumulator) NumActive() int { return a.active }

// Active reports whether userID has reached the active-user threshold.
func (a *Accumulator) Active(userID string) bool {
	uc := a.users[userID]
	return uc != nil && uc.posts >= a.minPosts
}

func (uc *userCells) profile() Profile { return fromCounts(&uc.hours, uc.distinct) }

// ProfileOf returns userID's current profile. ok is false for unknown
// users and users below the active threshold — the same users
// BuildUserProfiles would drop.
func (a *Accumulator) ProfileOf(userID string) (Profile, bool) {
	uc := a.users[userID]
	if uc == nil || uc.posts < a.minPosts || uc.distinct == 0 {
		return Profile{}, false
	}
	return uc.profile(), true
}

// EachActive calls fn with the profile and version of every active user,
// in no particular order. The profiles are bit-identical to
// BuildUserProfiles(batch-of-the-same-posts, BuildOptions{MinPosts: ...}):
// both pass the same per-hour distinct-cell integers to fromCounts.
func (a *Accumulator) EachActive(fn func(id string, p Profile, version uint64)) {
	for id, uc := range a.users {
		if uc.posts < a.minPosts || uc.distinct == 0 {
			continue
		}
		fn(id, uc.profile(), uc.version)
	}
}
