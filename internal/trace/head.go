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
	"sync"
	"sync/atomic"
	"time"
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

	// buf is the compactor's amortized output buffer (guarded by
	// compactMu). The current base's Posts always alias buf[:len], so a
	// fold with spare capacity appends in place instead of re-copying the
	// whole base — growth doubles, making compaction amortized O(1) per
	// post instead of O(total). Published Datasets never see the appended
	// region (their slice length is fixed), so readers need no
	// coordination.
	buf []Post
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
		n += len(base.Posts)
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
	baseLen := 0
	var gt map[string]string
	if base != nil {
		baseLen = len(base.Posts)
		gt = copyGroundTruth(base.GroundTruth)
	}
	// Make room in the amortized buffer. The base's Posts alias
	// h.buf[:baseLen] after the first fold, so with spare capacity the
	// merge appends in place and the base is never re-copied.
	if cap(h.buf) < baseLen+total {
		newCap := 2 * cap(h.buf)
		if newCap < baseLen+total {
			newCap = baseLen + total
		}
		grown := make([]Post, baseLen, newCap)
		if base != nil {
			copy(grown, base.Posts)
		}
		h.buf = grown
	} else {
		h.buf = h.buf[:baseLen]
	}
	// Tickets within one shard are monotonically increasing (drawn under
	// the shard lock in append order), so restoring global arrival order
	// is a K-way merge of sorted runs — no global sort, no scratch slice.
	idx := make([]int, len(parts))
	for filled := 0; filled < total; filled++ {
		best := -1
		var bestSeq uint64
		for i := range parts {
			t := parts[i].tail
			if t == nil || idx[i] >= t.NumPosts() {
				continue
			}
			if s := parts[i].seqs[idx[i]]; best < 0 || s < bestSeq {
				best, bestSeq = i, s
			}
		}
		t := parts[best].tail
		j := idx[best]
		h.buf = append(h.buf, Post{UserID: t.ids[t.userOf[j]], Time: time.Unix(t.when[j], 0).UTC()})
		idx[best]++
	}
	fresh := &Dataset{Name: h.name, Posts: h.buf, GroundTruth: gt}
	h.base.Store(fresh)
	h.pending.Add(-int64(total))
	return fresh
}
