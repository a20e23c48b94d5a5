package trace

// The mutable ingest head. The columnar Store (and the .dcs snapshot
// format built on it) is deliberately immutable: every reader shares it
// without coordination, and one dataset has exactly one byte
// representation. A long-running ingest daemon needs the complement — a
// small, mutable, concurrency-safe tail that absorbs live posts and is
// periodically compacted into a fresh immutable Dataset. ShardedHead is
// that tail, stacked on top of an immutable base Dataset: N user-hash
// shards, each a (Builder, arrival-sequence) pair behind its own mutex, so
// appends for different users proceed in parallel. Posts arrive in
// batches (AppendBatch; Append is a batch of one): a batch reserves one
// ticket per post from one global atomic sequence counter with a single
// add, then takes each touched shard's lock once. Compact merges the
// shard tails in ticket order, which makes the fold deterministic —
// for a fixed append order the compacted Dataset (and its snapshot bytes)
// is the base posts followed by the appended posts in append order, at
// every shard count. The shard-invariance property test pins exactly
// that, mirroring the IngestCSV worker-invariance contract.

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultHeadShards is the shard count NewShardedHead uses when asked for
// zero shards: enough to spread an 8–16 way ingest load without making
// compaction merges wide.
const DefaultHeadShards = 16

// headShard is one user-hash shard of a ShardedHead: a columnar tail plus
// the global arrival ticket of every tail post, behind a shard-local
// mutex. Padded so neighbouring shards' locks don't share a cache line.
type headShard struct {
	mu   sync.Mutex
	tail *Builder
	seqs []uint64 // arrival ticket per tail post, parallel to the tail columns
	// room is a lower bound on the posts the tail can still take, stored
	// under mu after every change to the tail: a batch group no larger
	// than it fits without taking the lock to check.
	room atomic.Int64
	_    [16]byte // mutex+pointer+slice+int64 = 48 bytes; pad to a 64-byte line
}

// ShardedHead is a concurrency-safe mutable ingest head over an immutable
// base Dataset, sharded by user hash so concurrent appends contend only
// when they hit the same shard. All methods are safe for concurrent use.
// The base Dataset and every Dataset returned by Compact are immutable and
// must not be mutated by callers.
//
// Compact is deterministic: posts are folded in global arrival-ticket
// order, so for any fixed append order the compacted Dataset is identical
// at every shard count.
type ShardedHead struct {
	name   string
	mask   uint32
	shards []headShard

	seq     atomic.Uint64 // global arrival ticket source
	pending atomic.Int64  // posts currently sitting in shard tails

	base      atomic.Pointer[Dataset] // immutable; nil means empty
	compactMu sync.Mutex              // serializes Compact folds

	userCap, postCap int // tail ordinal ceilings (0: math.MaxInt32); see LimitTails

	// spares holds one-post batches for Append to reuse, one per shard:
	// more one-post appends than shards at once mostly wait on shard
	// locks anyway.
	spares chan *Batch
}

// NewShardedHead returns a ShardedHead named name on top of base (nil for
// an empty head) with the given shard count (0 = DefaultHeadShards; other
// values are rounded up to a power of two). The caller hands ownership of
// base to the head and must not mutate it afterwards.
func NewShardedHead(name string, base *Dataset, shards int) *ShardedHead {
	if shards <= 0 {
		shards = DefaultHeadShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	h := &ShardedHead{name: name, mask: uint32(n - 1), shards: make([]headShard, n), spares: make(chan *Batch, n)}
	for i := range h.shards {
		h.shards[i].setTail(h.newTail())
	}
	h.base.Store(base)
	return h
}

// newTail returns an empty shard tail under the head's ordinal ceilings.
func (h *ShardedHead) newTail() *Builder {
	b := NewBuilder(0)
	b.userCap, b.postCap = h.userCap, h.postCap
	return b
}

// setTail installs tail and publishes its room. The caller holds sh.mu or
// owns the head exclusively.
func (sh *headShard) setTail(tail *Builder) {
	sh.tail, sh.seqs = tail, nil
	sh.room.Store(int64(tail.room()))
}

// LimitTails caps every shard tail, now and after each Compact, at users
// users and posts posts (0: math.MaxInt32), so tests reach the columnar
// ordinal ceiling without two billion posts. Call it before the head is
// shared between goroutines.
func (h *ShardedHead) LimitTails(users, posts int) {
	h.userCap, h.postCap = users, posts
	for i := range h.shards {
		sh := &h.shards[i]
		sh.tail.userCap, sh.tail.postCap = users, posts
		sh.room.Store(int64(sh.tail.room()))
	}
}

// fnv32a is the 32-bit FNV-1a hash — deterministic, allocation-free, and
// good enough to spread forum user IDs across shards.
func fnv32a[T ~string | ~[]byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// ShardOf returns the shard index userID hashes to — exported so callers
// colocating per-user state (the daemon's accumulator shards) can reuse
// the head's partition.
func (h *ShardedHead) ShardOf(userID []byte) int {
	return int(fnv32a(userID) & h.mask)
}

// ShardOfString is ShardOf for callers holding a string, without the
// []byte conversion allocation.
func (h *ShardedHead) ShardOfString(userID string) int {
	return int(fnv32a(userID) & h.mask)
}

// NumShards returns the (power-of-two) shard count.
func (h *ShardedHead) NumShards() int { return len(h.shards) }

// Batch is a column batch of posts in arrival order, the unit
// ShardedHead.AppendBatch applies: one ticket reservation for the whole
// batch and one critical section per touched shard, where a post-by-post
// append pays both per post. Add copies the user ID into the batch's own
// arena, so callers may reuse the buffer they parsed it from, and hashes
// it once for its shard. The zero value is an empty batch; Reset empties
// one for reuse without freeing its storage.
type Batch struct {
	arena []byte   // user IDs back to back
	ends  []int    // ends[i]: end of post i's ID in arena
	secs  []int64  // post i's Unix second
	hash  []uint32 // FNV-1a of post i's ID

	// The grouping of the first n posts by shard, for one head's shard
	// count: shard s's posts are order[start[s]:start[s+1]], in batch
	// order. Filled by group.
	order []int32
	start []int32
}

// Add appends one post to the batch.
func (b *Batch) Add(userID []byte, unixSec int64) {
	addPost(b, userID, unixSec)
}

func addPost[T ~string | ~[]byte](b *Batch, userID T, unixSec int64) {
	b.arena = append(b.arena, userID...)
	b.ends = append(b.ends, len(b.arena))
	b.secs = append(b.secs, unixSec)
	b.hash = append(b.hash, fnv32a(userID))
}

// Len returns the number of posts in the batch.
func (b *Batch) Len() int { return len(b.secs) }

// User returns post i's user ID; it aliases the batch until Reset.
func (b *Batch) User(i int) []byte {
	from := 0
	if i > 0 {
		from = b.ends[i-1]
	}
	return b.arena[from:b.ends[i]]
}

// Sec returns post i's Unix second.
func (b *Batch) Sec(i int) int64 { return b.secs[i] }

// Reset empties the batch, keeping its storage.
func (b *Batch) Reset() {
	b.arena, b.ends, b.secs, b.hash = b.arena[:0], b.ends[:0], b.secs[:0], b.hash[:0]
}

// group sorts the first n posts by shard with a stable counting sort, so
// every shard's group keeps batch order. Counting into start[s+2] and
// placing through start[s+1] leaves start[s+1] at the end of shard s's
// group, which is where shard s+1's begins.
func (b *Batch) group(n int, mask uint32) {
	shards := int(mask) + 1
	b.start = slices.Grow(b.start[:0], shards+2)[:shards+2]
	clear(b.start)
	for _, hv := range b.hash[:n] {
		b.start[hv&mask+2]++
	}
	for s := 2; s < len(b.start); s++ {
		b.start[s] += b.start[s-1]
	}
	b.order = slices.Grow(b.order[:0], n)[:n]
	for i, hv := range b.hash[:n] {
		at := &b.start[hv&mask+1]
		b.order[*at] = int32(i)
		*at++
	}
}

// posts returns shard s's group from the last group call.
func (b *Batch) posts(s int) []int32 { return b.order[b.start[s]:b.start[s+1]] }

// Append records one post in the mutable tail of the user's shard: a batch
// of one. It returns a *LimitError (and records nothing) if that shard's
// tail would overflow the columnar ordinal space.
func (h *ShardedHead) Append(userID string, unixSec int64) error {
	return appendOne(h, userID, unixSec)
}

// AppendBytes is Append for callers holding the user ID as a byte slice:
// the ID is only copied to a string when the user is new to the shard, so
// steady-state appends allocate nothing.
func (h *ShardedHead) AppendBytes(userID []byte, unixSec int64) error {
	return appendOne(h, userID, unixSec)
}

// appendOne appends one post as a batch taken from the head's spares.
// The spares are a buffered channel, not a sync.Pool: the race detector
// makes a Pool drop a quarter of its puts, and a one-post append must
// allocate nothing in every build.
func appendOne[T ~string | ~[]byte](h *ShardedHead, userID T, unixSec int64) error {
	var b *Batch
	select {
	case b = <-h.spares:
		b.Reset()
	default:
		b = new(Batch)
	}
	addPost(b, userID, unixSec)
	err := h.AppendBatch(b, nil, nil)
	select {
	case h.spares <- b:
	default:
	}
	return err
}

// AppendBatch records b's posts in the mutable tails, in batch order. It
// reserves the batch's arrival tickets with one atomic add (post i gets
// the i-th) and then, for each touched shard in shard order, runs one
// critical section: it locks lock(s) when lock is non-nil, appends the
// shard's group under the shard's own lock, calls fold(s, posts) with the
// batch indices it appended when fold is non-nil, and unlocks lock(s).
// Callers colocating per-user state with the head's shards (ShardOf) pass
// their shard lock and fold the posts into that state, so the head's tail
// and theirs change together. b is grouped for this head in passing;
// AppendBatch does not keep b.
//
// Before appending anything, every touched tail's room is checked against
// its group, so when a post does not fit the posts before it, and only
// those, are appended and its *LimitError is returned. Two batches
// appending concurrently within one batch of a tail's ceiling can both
// pass that check; then the batch that runs out appends its groups up to
// the first post that no longer fits, stops there and returns that post's
// *LimitError, and the posts it did append need not be a prefix of it.
func (h *ShardedHead) AppendBatch(b *Batch, lock func(shard int) sync.Locker, fold func(shard int, posts []int32)) error {
	n := b.Len()
	b.group(n, h.mask)
	var err error
	for s := range h.shards {
		if at, lerr := h.shards[s].misfit(b, b.posts(s)); lerr != nil && at < n {
			n, err = at, lerr
		}
	}
	if n == 0 {
		return err
	}
	if err != nil {
		b.group(n, h.mask)
	}
	first := h.seq.Add(uint64(n)) - uint64(n) + 1
	applied := 0
	for s := range h.shards {
		posts := b.posts(s)
		if len(posts) == 0 {
			continue
		}
		var l sync.Locker
		if lock != nil {
			l = lock(s)
			l.Lock()
		}
		done, aerr := h.shards[s].append(b, posts, first)
		if fold != nil && len(done) > 0 {
			fold(s, done)
		}
		if l != nil {
			l.Unlock()
		}
		applied += len(done)
		if aerr != nil {
			err = aerr
			break
		}
	}
	h.pending.Add(int64(applied))
	return err
}

// misfit returns the batch index of the first post of group (shard sh's
// posts of b, in batch order) that does not fit the shard's tail, with
// the *LimitError appending it would return; -1 and nil when the whole
// group fits. A group within the published room is checked without the
// lock; only a tail near its ceiling is walked post by post.
func (sh *headShard) misfit(b *Batch, group []int32) (int, error) {
	if int64(len(group)) <= sh.room.Load() {
		return -1, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.tail
	users, posts := t.userLimit()-len(t.ids), t.postLimit()-len(t.userOf)
	var fresh map[string]bool // users new to the tail, interned by earlier posts of the group
	for _, i := range group {
		id := b.User(int(i))
		if _, ok := t.lookup[string(id)]; !ok && !fresh[string(id)] {
			if users == 0 {
				return int(i), &LimitError{What: "users", Limit: t.userLimit()}
			}
			users--
			if fresh == nil {
				fresh = make(map[string]bool)
			}
			fresh[string(id)] = true
		}
		if posts == 0 {
			return int(i), &LimitError{What: "posts", Limit: t.postLimit()}
		}
		posts--
	}
	return -1, nil
}

// append appends group (shard sh's posts of b, in batch order) to the
// tail under the shard lock, post i with ticket first+i. It returns the
// posts appended: all of group, or the posts before the first that no
// longer fits, with that post's *LimitError.
func (sh *headShard) append(b *Batch, group []int32, first uint64) (done []int32, err error) {
	sh.mu.Lock()
	done = group
	for k, i := range group {
		var u int32
		if u, err = sh.tail.TryUserBytes(b.User(int(i))); err == nil {
			err = sh.tail.TryAdd(u, b.Sec(int(i)))
		}
		if err != nil {
			done = group[:k]
			break
		}
		sh.seqs = append(sh.seqs, first+uint64(i))
	}
	sh.room.Store(int64(sh.tail.room()))
	sh.mu.Unlock()
	return done, err
}

// Pending returns the number of posts in the mutable shard tails, i.e.
// appended since the last Compact. Lock-free.
func (h *ShardedHead) Pending() int { return int(h.pending.Load()) }

// TotalPosts returns the number of posts in the head: compacted base plus
// shard tails. Lock-free; during a concurrent Compact the count may
// transiently include the folding posts twice, and during a concurrent
// AppendBatch it may miss posts already in a tail.
func (h *ShardedHead) TotalPosts() int {
	n := int(h.pending.Load())
	if base := h.base.Load(); base != nil {
		n += base.NumPosts()
	}
	return n
}

// Base returns the current immutable base Dataset (nil before the first
// compaction of a baseless head). Lock-free.
func (h *ShardedHead) Base() *Dataset { return h.base.Load() }

// Compact folds the shard tails into a fresh immutable base Dataset and
// resets the tails to empty. Shard locks are held only to swap each tail
// out; the merge itself runs unlocked, so concurrent appends are never
// stalled behind the fold. Posts keep global arrival-ticket order: base
// posts first, then tail posts in the order their appends were accepted —
// for a fixed append order, exactly the sequence a batch ingest of the
// same stream would hold.
func (h *ShardedHead) Compact() *Dataset {
	h.compactMu.Lock()
	defer h.compactMu.Unlock()
	parts := make([]headShard, len(h.shards))
	total := 0
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		if n := sh.tail.NumPosts(); n > 0 {
			parts[i].tail, parts[i].seqs = sh.tail, sh.seqs
			total += n
			sh.setTail(h.newTail())
		}
		sh.mu.Unlock()
	}
	base := h.base.Load()
	if total == 0 && base != nil {
		return base
	}
	bs, gt := emptyStore, map[string]string(nil)
	if base != nil {
		bs, gt = base.Index(), copyGroundTruth(base.GroundTruth)
	}
	// The fold writes the columns of the new store directly: the base's
	// columns first (its dictionary ranks are the provisional user
	// indices), then each tail user resolved once to a base rank or a new
	// provisional index.
	ids := append([]string(nil), bs.ids...)
	baseLen := len(bs.userOf)
	userOf := make([]int32, baseLen, baseLen+total)
	copy(userOf, bs.userOf)
	when := make([]int64, baseLen, baseLen+total)
	copy(when, bs.when)
	fresh := make(map[string]int32)
	remaps := make([][]int32, len(parts))
	for i := range parts {
		t := parts[i].tail
		if t == nil {
			continue
		}
		remap := make([]int32, len(t.ids))
		for u, id := range t.ids {
			if r, ok := bs.Lookup(id); ok {
				remap[u] = int32(r)
				continue
			}
			g, ok := fresh[id]
			if !ok {
				g = int32(len(ids))
				fresh[id] = g
				ids = append(ids, id)
			}
			remap[u] = g
		}
		remaps[i] = remap
	}
	// Restore global arrival order by ticket rank. Tickets are unique, and
	// a batch reserves its tickets after its posts are parsed, so only its
	// own appends run between a reservation and its last post reaching a
	// tail: this fold's tickets lie in a window about two folds wide plus
	// one batch per batch appending concurrently. Count the tickets below
	// each one in that window, and every post goes straight to its
	// position — no merge, no sort. The window is taken over every ticket,
	// not each tail's first and last: a tail can take a later batch's
	// group before an earlier batch's.
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range parts {
		for _, t := range parts[i].seqs {
			lo, hi = min(lo, t), max(hi, t)
		}
	}
	below := make([]int32, hi-lo+2) // below[t-lo]: this fold's tickets < t
	for i := range parts {
		for _, t := range parts[i].seqs {
			below[t-lo+1] = 1
		}
	}
	for k := 1; k < len(below); k++ {
		below[k] += below[k-1]
	}
	userOf, when = userOf[:baseLen+total], when[:baseLen+total]
	for i := range parts {
		t := parts[i].tail
		for j, seq := range parts[i].seqs {
			at := baseLen + int(below[seq-lo])
			userOf[at] = remaps[i][t.userOf[j]]
			when[at] = t.when[j]
		}
	}
	// Tail posts are whole seconds, so the base's sub-second column is the
	// new store's; stores are immutable, so it is shared, not copied.
	folded := &Dataset{Name: h.name, GroundTruth: gt, s: newStore(ids, userOf, when, bs.nanoAt, bs.nanoNS)}
	h.base.Store(folded)
	h.pending.Add(-int64(total))
	return folded
}
