package trace

// The mutable ingest head. The columnar Store (and the .dcs snapshot
// format built on it) is deliberately immutable: every reader shares it
// without coordination, and one dataset has exactly one byte
// representation. A long-running ingest daemon needs the complement — a
// small, mutable, concurrency-safe tail that absorbs live posts and is
// periodically compacted into a fresh immutable Dataset. ShardedHead is
// that tail, stacked on top of an immutable base Dataset: N user-hash
// shards, each a (Builder, arrival-sequence) pair behind its own mutex, so
// appends for different users proceed in parallel. Every accepted post
// draws a ticket from one global atomic sequence counter; Compact merges
// the shard tails in ticket order, which makes the fold deterministic —
// for a fixed append order the compacted Dataset (and its snapshot bytes)
// is the base posts followed by the appended posts in append order, at
// every shard count. The shard-invariance property test pins exactly
// that, mirroring the IngestCSV worker-invariance contract.

import (
	"math"
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
	_    [24]byte // mutex+pointer+slice = 40 bytes; pad to a 64-byte line
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
	h := &ShardedHead{name: name, mask: uint32(n - 1), shards: make([]headShard, n)}
	for i := range h.shards {
		h.shards[i].tail = NewBuilder(0)
	}
	h.base.Store(base)
	return h
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

// Append records one post in the mutable tail of the user's shard. It
// returns a *LimitError (and records nothing) if that shard's tail would
// overflow the columnar ordinal space.
func (h *ShardedHead) Append(userID string, unixSec int64) error {
	return h.appendShard(h.ShardOfString(userID), func(b *Builder) (int32, error) {
		return b.TryUser(userID)
	}, unixSec)
}

// AppendBytes is Append for callers holding the user ID as a byte slice
// (the NDJSON fast path): the ID is only copied to a string when the user
// is new to the shard, so steady-state appends allocate nothing.
func (h *ShardedHead) AppendBytes(userID []byte, unixSec int64) error {
	return h.appendShard(h.ShardOf(userID), func(b *Builder) (int32, error) {
		return b.TryUserBytes(userID)
	}, unixSec)
}

func (h *ShardedHead) appendShard(si int, intern func(*Builder) (int32, error), unixSec int64) error {
	sh := &h.shards[si]
	sh.mu.Lock()
	u, err := intern(sh.tail)
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	if err := sh.tail.TryAdd(u, unixSec); err != nil {
		sh.mu.Unlock()
		return err
	}
	sh.seqs = append(sh.seqs, h.seq.Add(1))
	sh.mu.Unlock()
	h.pending.Add(1)
	return nil
}

// Pending returns the number of posts in the mutable shard tails, i.e.
// appended since the last Compact. Lock-free.
func (h *ShardedHead) Pending() int { return int(h.pending.Load()) }

// TotalPosts returns the number of posts in the head: compacted base plus
// shard tails. Lock-free; during a concurrent Compact the count may
// transiently include the folding posts twice.
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
			parts[i] = headShard{tail: sh.tail, seqs: sh.seqs}
			total += n
			sh.tail = NewBuilder(0)
			sh.seqs = nil
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
	// each was drawn after the previous fold swapped its shard, so this
	// fold's tickets lie in a window at most about two folds wide: count
	// the tickets below each one in that window, and every post goes
	// straight to its position — no merge, no sort.
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range parts {
		if seqs := parts[i].seqs; len(seqs) > 0 {
			lo, hi = min(lo, seqs[0]), max(hi, seqs[len(seqs)-1])
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
