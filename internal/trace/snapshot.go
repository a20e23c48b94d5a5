package trace

// The binary columnar snapshot format (.dcs). Parsing CSV — even sharded
// — is O(input) string work on every run; a snapshot round-trips the
// interned columnar Store so a previously-seen dataset loads with O(1)
// parse work: read columns, verify checksums, rebuild the CSR grouping.
//
// Layout (all integers little-endian):
//
//	magic   "DCSNAP01" (8 bytes)
//	version uint32 (currently 1)
//	count   uint32 (number of sections)
//	count × section:
//	    tag     4 bytes
//	    length  uint64 (payload bytes)
//	    crc32   uint32 (IEEE, over the payload)
//	    payload length bytes
//
// Sections, in this exact order (NANO and GRTR only when non-empty):
//
//	META  uint64 nUsers, uint64 nPosts, byte sortedByTime (0/1),
//	      uvarint len + dataset name
//	DICT  nUsers × (uvarint len + user ID), strictly ascending
//	USER  nPosts × uint32: per post, dense user index (sorted rank)
//	WHEN  nPosts × uint64: per post, Unix seconds (two's complement)
//	OFFS  (nUsers+1) × uint32: CSR offsets of the per-user grouping
//	NANO  uvarint count, count × (uint64 post index, uint32 nanoseconds):
//	      posts with sub-second precision, strictly ascending indices
//	GRTR  uvarint count, count × (uvarint len + user ID, uvarint len +
//	      region), strictly ascending IDs: the ground-truth labels
//
// The encoding is canonical — one dataset has exactly one byte
// representation — and the decoder rejects everything else (wrong section
// order, empty optional sections, non-minimal varints, checksum or
// cross-section inconsistencies) with a typed *SnapshotError. That makes
// "decode then re-encode is the identity" a fuzzable invariant, and means
// a corrupted file can never be half-loaded. Evolution rule: any layout
// change bumps the version; readers reject versions (and section tags)
// they don't know.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

const (
	snapshotMagic   = "DCSNAP01"
	snapshotVersion = 1
)

// snapshotTags is the canonical section order.
var snapshotTags = []string{"META", "DICT", "USER", "WHEN", "OFFS", "NANO", "GRTR"}

// SnapshotError is the typed error for every way a snapshot can fail to
// decode: damaged bytes, version drift, checksum mismatches, or sections
// that are internally consistent but contradict each other.
type SnapshotError struct {
	// Section is the 4-byte section tag, or "header" for the envelope.
	Section string
	// Reason describes the failure.
	Reason string
}

// Error implements the error interface.
func (e *SnapshotError) Error() string {
	return fmt.Sprintf("trace: snapshot %s: %s", e.Section, e.Reason)
}

func snapErr(section, format string, args ...any) error {
	return &SnapshotError{Section: section, Reason: fmt.Sprintf(format, args...)}
}

// WriteSnapshot encodes the dataset in the .dcs columnar snapshot format.
// Every section is a direct encoding of a store column: times are UTC
// instants (the Unix-seconds column plus the sparse sub-second column).
func (d *Dataset) WriteSnapshot(w io.Writer) error {
	s := d.Index()
	if len(s.ids) > math.MaxInt32 || len(s.userOf) > math.MaxInt32 {
		return snapErr("META", "dataset too large for snapshot (int32 CSR indices)")
	}

	meta := binary.LittleEndian.AppendUint64(nil, uint64(len(s.ids)))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(s.userOf)))
	flag := byte(0)
	if s.sortedByTime {
		flag = 1
	}
	meta = append(meta, flag)
	meta = binary.AppendUvarint(meta, uint64(len(d.Name)))
	meta = append(meta, d.Name...)

	dict := make([]byte, 0, 8*len(s.ids))
	for _, id := range s.ids {
		dict = binary.AppendUvarint(dict, uint64(len(id)))
		dict = append(dict, id...)
	}

	user := make([]byte, 0, 4*len(s.userOf))
	for _, u := range s.userOf {
		user = binary.LittleEndian.AppendUint32(user, uint32(u))
	}

	when := make([]byte, 0, 8*len(s.when))
	for _, sec := range s.when {
		when = binary.LittleEndian.AppendUint64(when, uint64(sec))
	}

	offs := make([]byte, 0, 4*len(s.offsets))
	for _, o := range s.offsets {
		offs = binary.LittleEndian.AppendUint32(offs, uint32(o))
	}

	var nano []byte
	if len(s.nanoAt) > 0 {
		nano = make([]byte, 0, binary.MaxVarintLen64+12*len(s.nanoAt))
		nano = binary.AppendUvarint(nano, uint64(len(s.nanoAt)))
		for j, at := range s.nanoAt {
			nano = binary.LittleEndian.AppendUint64(nano, uint64(at))
			nano = binary.LittleEndian.AppendUint32(nano, uint32(s.nanoNS[j]))
		}
	}

	var grtr []byte
	if len(d.GroundTruth) > 0 {
		ids := make([]string, 0, len(d.GroundTruth))
		for id := range d.GroundTruth {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		grtr = binary.AppendUvarint(grtr, uint64(len(ids)))
		for _, id := range ids {
			grtr = binary.AppendUvarint(grtr, uint64(len(id)))
			grtr = append(grtr, id...)
			region := d.GroundTruth[id]
			grtr = binary.AppendUvarint(grtr, uint64(len(region)))
			grtr = append(grtr, region...)
		}
	}

	payloads := [][]byte{meta, dict, user, when, offs, nano, grtr}
	count := 0
	for _, p := range payloads {
		if p != nil {
			count++
		}
	}
	header := append([]byte(snapshotMagic), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(header[8:], snapshotVersion)
	binary.LittleEndian.PutUint32(header[12:], uint32(count))
	if _, err := w.Write(header); err != nil {
		return err
	}
	var secHeader [16]byte
	for i, p := range payloads {
		if p == nil {
			continue
		}
		copy(secHeader[:4], snapshotTags[i])
		binary.LittleEndian.PutUint64(secHeader[4:], uint64(len(p)))
		binary.LittleEndian.PutUint32(secHeader[12:], crc32.ChecksumIEEE(p))
		if _, err := w.Write(secHeader[:]); err != nil {
			return err
		}
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a minimally-encoded varint, rejecting truncated and
// non-minimal forms (non-minimal forms would break the canonical
// encode-decode bijection).
func uvarint(b []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n != uvarintLen(v) {
		return 0, nil, false
	}
	return v, b[n:], true
}

// uvarintLen returns the minimal encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ReadSnapshotBytes decodes a .dcs snapshot straight into a Dataset's
// columnar store; no rows are built. Every
// defect — truncation, bit flips, version drift, cross-section
// inconsistency — returns a *SnapshotError; a non-nil Dataset is always
// fully valid. The decode copies what it keeps: data is not retained and
// may be reused or unmapped afterwards.
func ReadSnapshotBytes(data []byte) (*Dataset, error) {
	if len(data) < 16 {
		return nil, snapErr("header", "truncated header (%d bytes)", len(data))
	}
	if string(data[:8]) != snapshotMagic {
		return nil, snapErr("header", "bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != snapshotVersion {
		return nil, snapErr("header", "unsupported version %d (want %d)", v, snapshotVersion)
	}
	count := binary.LittleEndian.Uint32(data[12:16])
	if count > uint32(len(snapshotTags)) {
		return nil, snapErr("header", "section count %d out of range", count)
	}

	// Walk the sections, enforcing the canonical order and per-section
	// checksums.
	sections := make(map[string][]byte, count)
	off := 16
	nextTag := 0
	for i := uint32(0); i < count; i++ {
		if len(data)-off < 16 {
			return nil, snapErr("header", "truncated section header at offset %d", off)
		}
		tag := string(data[off : off+4])
		size := binary.LittleEndian.Uint64(data[off+4 : off+12])
		sum := binary.LittleEndian.Uint32(data[off+12 : off+16])
		off += 16
		if uint64(len(data)-off) < size {
			return nil, snapErr(tag, "truncated payload (%d of %d bytes)", len(data)-off, size)
		}
		payload := data[off : off+int(size)]
		off += int(size)
		pos := -1
		for j := nextTag; j < len(snapshotTags); j++ {
			if snapshotTags[j] == tag {
				pos = j
				break
			}
		}
		if pos < 0 {
			return nil, snapErr(tag, "unknown or out-of-order section")
		}
		nextTag = pos + 1
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, snapErr(tag, "checksum mismatch")
		}
		sections[tag] = payload
	}
	if off != len(data) {
		return nil, snapErr("header", "%d trailing bytes", len(data)-off)
	}
	for _, tag := range snapshotTags[:5] {
		if _, ok := sections[tag]; !ok {
			return nil, snapErr(tag, "missing required section")
		}
	}

	// META: counts, order flag, name.
	meta := sections["META"]
	if len(meta) < 17 {
		return nil, snapErr("META", "truncated")
	}
	nUsers64 := binary.LittleEndian.Uint64(meta[:8])
	nPosts64 := binary.LittleEndian.Uint64(meta[8:16])
	flag := meta[16]
	if flag > 1 {
		return nil, snapErr("META", "bad sortedByTime flag %d", flag)
	}
	if nUsers64 > math.MaxInt32 || nPosts64 > math.MaxInt32 {
		return nil, snapErr("META", "counts out of int32 range (%d users, %d posts)", nUsers64, nPosts64)
	}
	nUsers, nPosts := int(nUsers64), int(nPosts64)
	nameLen, rest, ok := uvarint(meta[17:])
	if !ok || uint64(len(rest)) != nameLen {
		return nil, snapErr("META", "bad name encoding")
	}
	name := string(rest)

	// DICT: the sorted user dictionary. Every entry takes at least one
	// byte, so the claimed count is bounded by the payload size before any
	// count-proportional allocation.
	dict := sections["DICT"]
	if nUsers > len(dict) {
		return nil, snapErr("DICT", "user count %d exceeds section size %d", nUsers, len(dict))
	}
	// One backing allocation for every ID: the strings are slices of a
	// single immutable copy of the payload, not per-entry copies.
	slab := string(dict)
	ids := make([]string, nUsers)
	pos := 0
	for u := 0; u < nUsers; u++ {
		n, rest, ok := uvarint(dict)
		if !ok || uint64(len(rest)) < n {
			return nil, snapErr("DICT", "bad entry %d", u)
		}
		pos += len(dict) - len(rest)
		ids[u] = slab[pos : pos+int(n)]
		pos += int(n)
		dict = rest[n:]
		if u > 0 && ids[u-1] >= ids[u] {
			return nil, snapErr("DICT", "IDs not strictly ascending at entry %d", u)
		}
	}
	if len(dict) != 0 {
		return nil, snapErr("DICT", "%d trailing bytes", len(dict))
	}

	// OFFS: CSR offsets — decoded before USER so the scatter below can
	// cross-check the per-user counts in the same pass that builds the
	// grouping.
	offsPay := sections["OFFS"]
	if len(offsPay) != 4*(nUsers+1) {
		return nil, snapErr("OFFS", "size %d, want %d", len(offsPay), 4*(nUsers+1))
	}
	offsets := make([]int32, nUsers+1)
	for i := range offsets {
		v := binary.LittleEndian.Uint32(offsPay[4*i:])
		if v > uint32(nPosts) {
			return nil, snapErr("OFFS", "offset %d out of range at %d", v, i)
		}
		if i > 0 && int32(v) < offsets[i-1] {
			return nil, snapErr("OFFS", "offsets not non-decreasing at %d", i)
		}
		offsets[i] = int32(v)
	}
	if offsets[0] != 0 || offsets[nUsers] != int32(nPosts) {
		return nil, snapErr("OFFS", "offsets do not span the post column")
	}

	// USER and WHEN: per-post columns, decoded in a single fused pass that
	// also scatters the CSR grouping — the columns are touched exactly
	// once. The cursor staying inside each
	// user's offset window proves OFFS and USER agree on every count.
	user := sections["USER"]
	if len(user) != 4*nPosts {
		return nil, snapErr("USER", "size %d, want %d", len(user), 4*nPosts)
	}
	whenSec := sections["WHEN"]
	if len(whenSec) != 8*nPosts {
		return nil, snapErr("WHEN", "size %d, want %d", len(whenSec), 8*nPosts)
	}
	userOf := make([]int32, nPosts)
	when := make([]int64, nPosts)
	csr := make([]int32, nPosts)
	cursor := make([]int32, nUsers)
	copy(cursor, offsets[:nUsers])
	for i := 0; i < nPosts; i++ {
		u := binary.LittleEndian.Uint32(user[4*i:])
		if u >= uint32(nUsers) {
			return nil, snapErr("USER", "user index %d out of range at post %d", u, i)
		}
		userOf[i] = int32(u)
		c := cursor[u]
		if c >= offsets[u+1] {
			return nil, snapErr("OFFS", "offsets inconsistent with USER counts at user %d", u)
		}
		csr[c] = int32(i)
		cursor[u] = c + 1
		when[i] = int64(binary.LittleEndian.Uint64(whenSec[8*i:]))
	}
	for u := 0; u < nUsers; u++ {
		if cursor[u] != offsets[u+1] {
			return nil, snapErr("OFFS", "offsets inconsistent with USER counts at user %d", u)
		}
	}

	// NANO: sub-second exceptions (optional, non-empty, ascending).
	var nanoAt, nanoNS []int32
	if nano, ok := sections["NANO"]; ok {
		n, rest, ok := uvarint(nano)
		if !ok || n == 0 {
			return nil, snapErr("NANO", "bad or empty exception count")
		}
		if n > uint64(nPosts) {
			return nil, snapErr("NANO", "exception count %d exceeds posts", n)
		}
		if uint64(len(rest)) != n*12 {
			return nil, snapErr("NANO", "size %d, want %d", len(rest), n*12)
		}
		nanoAt = make([]int32, n)
		nanoNS = make([]int32, n)
		for i := range nanoAt {
			idx := binary.LittleEndian.Uint64(rest[12*i:])
			ns := binary.LittleEndian.Uint32(rest[12*i+8:])
			if idx >= uint64(nPosts) {
				return nil, snapErr("NANO", "post index %d out of range", idx)
			}
			if i > 0 && uint64(nanoAt[i-1]) >= idx {
				return nil, snapErr("NANO", "post indices not strictly ascending")
			}
			if ns == 0 || ns >= 1e9 {
				return nil, snapErr("NANO", "nanoseconds %d out of range", ns)
			}
			nanoAt[i] = int32(idx)
			nanoNS[i] = int32(ns)
		}
	}

	// GRTR: ground-truth labels (optional, non-empty, ascending IDs).
	var groundTruth map[string]string
	if grtr, ok := sections["GRTR"]; ok {
		n, rest, ok := uvarint(grtr)
		if !ok || n == 0 {
			return nil, snapErr("GRTR", "bad or empty label count")
		}
		if n > uint64(len(rest))/2 { // every entry takes at least two bytes
			return nil, snapErr("GRTR", "label count %d exceeds section size %d", n, len(rest))
		}
		groundTruth = make(map[string]string, n)
		prev := ""
		// Labelled users are usually posting users and regions repeat, so
		// intern IDs against the (also ascending) DICT entries with a
		// merge-join cursor and regions against the handful seen so far
		// instead of allocating two strings per entry.
		dictCur := 0
		var regions []string
		for i := uint64(0); i < n; i++ {
			idLen, r2, ok := uvarint(rest)
			if !ok || uint64(len(r2)) < idLen {
				return nil, snapErr("GRTR", "bad entry %d", i)
			}
			idB := r2[:idLen]
			for dictCur < len(ids) && ids[dictCur] < string(idB) {
				dictCur++
			}
			var id string
			if dictCur < len(ids) && ids[dictCur] == string(idB) {
				id = ids[dictCur]
			} else {
				id = string(idB)
			}
			regLen, r3, ok := uvarint(r2[idLen:])
			if !ok || uint64(len(r3)) < regLen {
				return nil, snapErr("GRTR", "bad entry %d", i)
			}
			regB := r3[:regLen]
			region, seen := "", false
			for _, s := range regions {
				if s == string(regB) {
					region, seen = s, true
					break
				}
			}
			if !seen {
				region = string(regB)
				// The cap keeps a hostile snapshot full of distinct regions
				// from turning the dedup scan quadratic.
				if len(regions) < 64 {
					regions = append(regions, region)
				}
			}
			rest = r3[regLen:]
			if i > 0 && prev >= id {
				return nil, snapErr("GRTR", "IDs not strictly ascending at entry %d", i)
			}
			prev = id
			groundTruth[id] = region
		}
		if len(rest) != 0 {
			return nil, snapErr("GRTR", "%d trailing bytes", len(rest))
		}
	}

	// Verify the order flag against the time columns.
	sorted := chronological(when, nanoAt, nanoNS)
	if sorted != (flag == 1) {
		return nil, snapErr("META", "sortedByTime flag inconsistent with WHEN column")
	}
	return &Dataset{Name: name, GroundTruth: groundTruth, s: &Store{
		ids:          ids,
		userOf:       userOf,
		when:         when,
		nanoAt:       nanoAt,
		nanoNS:       nanoNS,
		offsets:      offsets,
		posts:        csr,
		sortedByTime: sorted,
	}}, nil
}
