package trace

import "hash/maphash"

// internSeed keys every interner hash in the process. User IDs come from
// scraped, attacker-controlled forums; an unseeded hash would let a
// crafted trace pile every user into one probe chain. One seed for the
// whole process lets the merge re-intern shard dictionaries by the hashes
// the shards stored.
var internSeed = maphash.MakeSeed()

// hashUser is the interner hash of a user ID.
func hashUser(b []byte) uint64 { return maphash.Bytes(internSeed, b) }

// internTable interns user IDs to dense int32 indices in first-seen
// order: an open-addressing table of int32 slots (0 = empty, else entry
// index + 1) probed linearly from the key's hash. Each entry keeps its
// hash, so the table grows and the merge re-interns without hashing any
// ID again, and key bytes are compared only on a hash match.
type internTable struct {
	slots   []int32 // len is a power of two, at most half full
	entries []internEntry
}

// internEntry is one interned ID and its hash, side by side so a probe
// hit reads one cache line.
type internEntry struct {
	hash uint64
	id   string // a copy: nothing aliases the input
}

// newInternTable returns a table with room for about hint entries before
// it first grows.
func newInternTable(hint int) *internTable {
	n := 8
	for n < 2*hint {
		n <<= 1
	}
	return &internTable{slots: make([]int32, n)}
}

// intern returns the entry index of key, whose hash is h, adding key as a
// new entry if it is not in the table. The caller computes h (hashUser),
// so tests can force collisions.
func intern[K ~string | ~[]byte](t *internTable, key K, h uint64) int32 {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			e := int32(len(t.entries))
			t.slots[i] = e + 1
			t.entries = append(t.entries, internEntry{hash: h, id: string(key)})
			if 2*len(t.entries) > len(t.slots) {
				t.grow()
			}
			return e
		}
		if e := &t.entries[s-1]; e.hash == h && e.id == string(key) {
			return s - 1
		}
	}
}

// grow doubles the slot array and reinserts every entry by its stored
// hash.
func (t *internTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for e := range t.entries {
		i := t.entries[e].hash & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(e) + 1
	}
}
