package stats

import (
	"fmt"
	"math"
)

// The Earth Mover's Distance (EMD, Wasserstein-1) between one-dimensional
// histograms. The paper uses the EMD in three places:
//
//   - to place an anonymous user on the time zone whose reference profile
//     is "less distant" from the user's activity profile (§IV-A);
//   - to filter out flat (bot-like) profiles, by comparing each user's
//     profile against the artificial uniform 1/24 profile (§IV-C);
//   - to tell the northern from the southern hemisphere, by comparing
//     seasonal profiles under a ±1 hour shift (§V-F).
//
// Activity profiles live on the 24-hour circle, so the natural ground
// distance is circular; the package provides both the linear variant
// (useful as an ablation baseline) and the circular one.

// EMDLinear computes the Wasserstein-1 distance between two histograms on
// the line, with unit spacing between adjacent bins. Inputs must be the
// same length and have (approximately) equal total mass; they do not need
// to be normalized. The classical result reduces the 1-D optimal transport
// to the L1 distance between cumulative sums.
func EMDLinear(p, q []float64) (float64, error) {
	if err := checkEMDInputs(p, q); err != nil {
		return 0, err
	}
	var cum, total float64
	for i := range p {
		cum += p[i] - q[i]
		total += math.Abs(cum)
	}
	return total, nil
}

// EMDCircular computes the Wasserstein-1 distance between two histograms on
// a circle with unit spacing between adjacent bins, using the
// Rabin-Werman reduction: the circular EMD equals
//
//	min_mu sum_i |F(i) - G(i) - mu|
//
// where F and G are the cumulative sums of the two histograms, and the
// minimizing mu is the median of the differences F(i) - G(i).
func EMDCircular(p, q []float64) (float64, error) {
	return EMDCircularScratch(p, q, nil)
}

// EMDCircularScratch is EMDCircular with a caller-owned scratch buffer. The
// computation needs 2*len(p) floats of workspace; a nil or short scratch is
// grown transparently. Reusing one buffer per worker removes the two
// per-call allocations, which dominate when a placement run makes millions
// of EMD calls (24 per user). The arithmetic — and therefore the result —
// is identical to EMDCircular's.
func EMDCircularScratch(p, q, scratch []float64) (float64, error) {
	if err := checkEMDInputs(p, q); err != nil {
		return 0, err
	}
	n := len(p)
	if cap(scratch) < 2*n {
		scratch = make([]float64, 2*n)
	}
	diffs := scratch[:n]
	var cum float64
	for i := 0; i < n; i++ {
		cum += p[i] - q[i]
		diffs[i] = cum
	}
	mu := medianScratch(diffs, scratch[n:2*n])
	var total float64
	for _, d := range diffs {
		total += math.Abs(d - mu)
	}
	return total, nil
}

// EMDCircularAllRotations computes the circular EMD between p and every
// rotation of q in one call: out[r] holds the distance between p and the
// histogram q_r with q_r[i] = q[(i+r) mod n], for r = 0..n-1. It returns
// out (grown if nil or short).
//
// This is the placement kernel: nearest-zone assignment compares one user
// profile against all 24 rotations of the generic profile, and calling
// EMDCircular 24 times re-validates both inputs and re-allocates workspace
// on every rotation. Here the inputs are validated once per call and the
// diff workspace (2n floats of scratch, caller-reusable) is shared across
// rotations; at n = 24 the median is medianNet24, which reads the diffs in
// place, so 2n floats are all the kernel needs and it allocates nothing.
// Other sizes take n more floats for medianScratch's copy, grown if the
// scratch is short, and sizes above 24 allocate the doubled copy of q.
//
// Rotations run in pairs, r and r+1 in one loop, so the two serial add
// chains of one rotation (the cumulative differences, then the sum of
// |d - mu|) overlap with the other rotation's; for odd n the last pair
// recomputes rotation 0. Each rotation still runs the exact accumulation
// order of EMDCircular (cum += p[i] - q_r[i], left to right). A
// shared-prefix-sum formulation (F(i) - S(i+r) + S(r)) would reuse one
// cumulative pass across all rotations but rounds differently in floating
// point; keeping the per-rotation accumulation makes every out[r]
// bit-identical to EMDCircular(p, q_r), which the equivalence and
// reference tests and the end-to-end golden fixture pin down.
func EMDCircularAllRotations(p, q, out, scratch []float64) ([]float64, error) {
	if err := checkEMDInputs(p, q); err != nil {
		return nil, err
	}
	n := len(p)
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	need := 2 * n
	if n != 24 {
		need = 3 * n
	}
	if cap(scratch) < need {
		scratch = make([]float64, need)
	}
	da, db, tmp := scratch[:n], scratch[n:2*n], scratch[2*n:need]
	// q twice over, so that every rotation is one straight slice of it;
	// the stack buffer holds it for n <= 24.
	var buf [48]float64
	qq := append(append(buf[:0], q...), q...)
	for r := 0; r < n; r += 2 {
		qa, qb := qq[r:r+n], qq[r+1:r+1+n]
		var ca, cb float64
		for i, pv := range p {
			ca += pv - qa[i]
			cb += pv - qb[i]
			da[i], db[i] = ca, cb
		}
		mua, mub := medianScratch(da, tmp), medianScratch(db, tmp)
		var ta, tb float64
		for i, d := range da {
			ta += math.Abs(d - mua)
			tb += math.Abs(db[i] - mub)
		}
		out[r], out[(r+1)%n] = ta, tb
	}
	return out, nil
}

func checkEMDInputs(p, q []float64) error {
	if len(p) != len(q) {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(p), len(q))
	}
	if len(p) == 0 {
		return ErrEmptyInput
	}
	sp, sq := Sum(p), Sum(q)
	if math.Abs(sp-sq) > 1e-6*math.Max(1, math.Max(math.Abs(sp), math.Abs(sq))) {
		return fmt.Errorf("stats: EMD inputs have different total mass (%g vs %g)", sp, sq)
	}
	for i := range p {
		if p[i] < 0 || q[i] < 0 {
			return fmt.Errorf("stats: negative mass at index %d", i)
		}
		if math.IsNaN(p[i]) || math.IsNaN(q[i]) {
			return fmt.Errorf("stats: NaN mass at index %d", i)
		}
		if math.IsInf(p[i], 0) || math.IsInf(q[i], 0) {
			return fmt.Errorf("stats: infinite mass at index %d", i)
		}
	}
	// With non-negative cells totalling at most m, every cumulative
	// difference and the median lie in [-m, m], so each |d - mu| is at most
	// 2m and a distance at most 2nm. Capping m at MaxFloat64/(4n) keeps all
	// of them finite with room for rounding; an overflowing sum (Inf) fails
	// the cap too, where the mass check above cannot see it (Inf - Inf is
	// NaN).
	if m := math.Max(sp, sq); !(m <= math.MaxFloat64/float64(4*len(p))) {
		return fmt.Errorf("%w: total mass %g over %d cells", ErrMassOverflow, m, len(p))
	}
	return nil
}

// medianScratch computes the median without touching xs. The 24 values of
// an hourly histogram, which every EMD kernel call passes, go to the
// medianNet24 comparator network, which reads xs in place and needs no tmp.
// Any other size works on a copy held in tmp (which must have at least
// len(xs) capacity): n <= 32 uses an insertion sort, larger inputs an O(n)
// quickselect. All three return the same order statistics as a full sort,
// so the value matches a sort.Float64s median exactly.
func medianScratch(xs, tmp []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n == 24 {
		return medianNet24(xs)
	}
	tmp = tmp[:n]
	copy(tmp, xs)
	if n <= 32 {
		insertionSort(tmp)
		if n%2 == 1 {
			return tmp[n/2]
		}
		return (tmp[n/2-1] + tmp[n/2]) / 2
	}
	hi := selectKth(tmp, n/2)
	if n%2 == 1 {
		return hi
	}
	// After selectKth, tmp[:n/2] holds the n/2 smallest values, so the
	// lower middle element is their maximum.
	lo := tmp[0]
	for _, v := range tmp[1 : n/2] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// selectKth partially orders xs in place so that xs[k] is the k-th smallest
// element (0-based), every element of xs[:k] is <= xs[k], and every element
// of xs[k+1:] is >= xs[k]. Hoare partitioning with a median-of-three pivot;
// expected O(n), no allocation, deterministic.
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot guards against sorted-input quadratics.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[k]
}
