package obs

// LatencyHist is the request-latency primitive: a fixed-size log-linear
// histogram tuned for percentile readout. The power-of-two Histogram is
// fine for batch-stage durations, but its 2x bucket width makes p99
// estimates useless for a serving hot path; LatencyHist splits every
// octave into 8 sub-buckets (~12.5% worst-case quantile error) while
// keeping the same obs contracts: every update is a single atomic add on a
// fixed array (lock-free, no resizing, no tail pointer), and a nil
// receiver ignores all updates without allocating, so instrumented
// handlers pay one predictable nil check when observability is off.
//
// The daemon wires one LatencyHist per HTTP endpoint into /metrics,
// updated straight from every handler goroutine.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// latSubBits splits each power-of-two octave into 2^latSubBits linear
	// sub-buckets: 8 per octave, ~12.5% worst-case bucket width.
	latSubBits = 3
	latSub     = 1 << latSubBits
	// latLinear is the exact region: values below it (0..15) map to their
	// own bucket.
	latLinear = 2 * latSub
	// latBuckets covers the full non-negative int64 range: the linear
	// region plus 8 sub-buckets per octave for bit lengths 5..63 (the
	// largest int64 has bit length 63, so that octave is the last one).
	latBuckets = latLinear + (62-latSubBits)*latSub
)

// latBucketOf maps a non-negative observation to its bucket index.
// Negative observations clamp to bucket 0.
func latBucketOf(v int64) int {
	if v < latLinear {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v))                   // >= latSubBits+2 here
	m := int(v>>(e-1-latSubBits)) & (latSub - 1) // the latSubBits bits after the leading 1
	return (e-latSubBits-1)*latSub + m + latSub  // continues the linear region seamlessly
}

// latBucketUpper is the inverse: the largest value landing in bucket b.
func latBucketUpper(b int) int64 {
	if b < latLinear {
		return int64(b)
	}
	k := b - latSub
	e := k>>latSubBits + latSubBits + 1
	m := int64(k & (latSub - 1))
	lower := (int64(latSub) + m) << (e - 1 - latSubBits)
	return lower + 1<<(e-1-latSubBits) - 1
}

// LatencyHist records a latency distribution in nanoseconds. The zero
// value is ready to use; a nil *LatencyHist ignores all updates.
type LatencyHist struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [latBuckets]atomic.Int64
}

// Observe records one duration.
func (h *LatencyHist) Observe(d time.Duration) {
	h.ObserveNs(int64(d))
}

// ObserveNs records one observation in nanoseconds (any non-negative
// int64-valued quantity works; quantiles come back in the same unit).
func (h *LatencyHist) ObserveNs(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[latBucketOf(v)].Add(1)
}

// LatencySnapshot is a point-in-time read of a LatencyHist, with the
// serving percentiles precomputed (nanoseconds, upper-bound estimates —
// at most one bucket width, ~12.5%, above the true quantile).
type LatencySnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`

	// buckets keeps the full distribution for Quantile; not serialized.
	buckets []int64
}

// Snapshot reads the histogram without stopping writers. Concurrent
// observations may straddle the read; the snapshot is still internally
// consistent: Count IS the scanned bucket total (not the separately-raced
// count counter), so quantile ranks, the mean divisor and the bucket mass
// all describe the same read. The historical bug clamped Count *down* to
// the scanned total but never up — an Observe landing its bucket increment
// after count.Load was read pushed bucket mass above Count, skewing ranks —
// and Mean divided a pre-scan Sum by the clamped count.
func (h *LatencyHist) Snapshot() LatencySnapshot {
	if h == nil {
		return LatencySnapshot{}
	}
	s := LatencySnapshot{buckets: make([]int64, latBuckets)}
	var total int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.buckets[i] = n
		total += n
	}
	// Count is the scanned total in both race directions, and Sum is read
	// *after* the scan: Observe adds to sum before its bucket, so every
	// observation counted in the scan already has its value in Sum, keeping
	// Mean an upper-ish estimate consistent with the scanned mass rather
	// than a pre-scan Sum divided by a post-scan count.
	s.Count = total
	s.Sum = h.sum.Load()
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
		s.P50 = s.Quantile(0.50)
		s.P90 = s.Quantile(0.90)
		s.P99 = s.Quantile(0.99)
		for i := latBuckets - 1; i >= 0; i-- {
			if s.buckets[i] > 0 {
				s.Max = latBucketUpper(i)
				break
			}
		}
	}
	return s
}

// Quantile returns the q-th quantile (0 <= q <= 1) in nanoseconds, as the
// upper bound of the bucket holding that rank. Returns 0 for an empty
// snapshot or one deserialized from JSON (which drops the buckets).
func (s LatencySnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.buckets) == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, n := range s.buckets {
		cum += n
		if cum >= rank {
			return latBucketUpper(i)
		}
	}
	return latBucketUpper(latBuckets - 1)
}
