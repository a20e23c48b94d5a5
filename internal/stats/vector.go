// Package stats provides the numerical machinery of the reproduction:
// descriptive statistics, the Pearson correlation used to compare activity
// profiles, linear and circular 1-D Earth Mover's Distance (Wasserstein-1),
// single-Gaussian least-squares curve fitting, and Expectation-Maximization
// for one-dimensional Gaussian mixtures with BIC model selection.
//
// Everything is implemented from scratch on the standard library, with an
// eye to the specific shapes the paper needs: 24-bin probability
// distributions over hours of the day and placement histograms over the 24
// time zones of the world.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmptyInput is returned by routines that need at least one sample.
var ErrEmptyInput = errors.New("stats: empty input")

// ErrLengthMismatch is returned when two vectors must have the same length.
var ErrLengthMismatch = errors.New("stats: length mismatch")

// ErrMassOverflow is returned by the EMD functions when a histogram's total
// mass is so large that the cumulative differences or the distance could
// overflow float64 and come out as NaN or ±Inf.
var ErrMassOverflow = errors.New("stats: EMD input mass overflows float64")

// Sum returns the sum of the values.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of the values.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	return Sum(xs) / float64(len(xs)), nil
}

// MeanStdDev returns both the mean and the population standard deviation in
// one pass over the data.
func MeanStdDev(xs []float64) (mean, std float64, err error) {
	mean, err = Mean(xs)
	if err != nil {
		return 0, 0, err
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs))), nil
}

// Normalize scales the vector so that it sums to one, returning a fresh
// slice. It fails if the vector is empty, contains a negative value, or
// sums to zero.
func Normalize(xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmptyInput
	}
	var s float64
	for i, x := range xs {
		if x < 0 {
			return nil, fmt.Errorf("stats: negative mass %g at index %d", x, i)
		}
		s += x
	}
	if s == 0 {
		return nil, errors.New("stats: zero total mass")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / s
	}
	return out, nil
}

// Rotate returns a copy of xs rotated left by k positions (element k of the
// input becomes element 0 of the output). Negative k rotates right.
func Rotate(xs []float64, k int) []float64 {
	n := len(xs)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	k = ((k % n) + n) % n
	for i := 0; i < n; i++ {
		out[i] = xs[(i+k)%n]
	}
	return out
}

// Pearson computes the Pearson correlation coefficient between two
// same-length vectors. The paper uses it to show that crowd profiles from
// different countries, once shifted to a common time zone, are nearly
// identical (r ~ 0.9) and that the CRD Club profile matches the generic
// Twitter profile (r = 0.93).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance in Pearson input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// PointwiseDistanceStats returns the average and the population standard
// deviation of the point-by-point absolute distance between two curves
// sampled on the same grid. This is the Table II fit-quality metric: "the
// average and standard deviation of the point-by-point distance" between a
// fitted Gaussian (mixture) curve and the crowd placement distribution.
func PointwiseDistanceStats(curve, data []float64) (avg, std float64, err error) {
	if len(curve) != len(data) {
		return 0, 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(curve), len(data))
	}
	if len(curve) == 0 {
		return 0, 0, ErrEmptyInput
	}
	diffs := make([]float64, len(curve))
	for i := range curve {
		diffs[i] = math.Abs(curve[i] - data[i])
	}
	return MeanStdDev(diffs)
}

// Entropy returns the Shannon entropy (in bits) of a probability
// distribution. The uniform 1/24 profile maximizes it at log2(24) ~ 4.585;
// peaked human-activity profiles sit well below. It provides an
// alternative flatness signal to the EMD-to-uniform criterion.
func Entropy(dist []float64) (float64, error) {
	if len(dist) == 0 {
		return 0, ErrEmptyInput
	}
	var sum, h float64
	for i, p := range dist {
		if p < 0 {
			return 0, fmt.Errorf("stats: negative probability %g at index %d", p, i)
		}
		sum += p
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		return 0, fmt.Errorf("stats: distribution sums to %g, want 1", sum)
	}
	return h, nil
}
