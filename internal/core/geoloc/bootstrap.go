package geoloc

// Bootstrap confidence intervals on the crowd mixture (ISSUE 10): resample
// the crowd's users with replacement, re-place each resampled user from the
// placement already in hand (per-user placement depends only on the user's
// profile and the generic reference, so a user's zone index is a cached row
// — no EMD recompute), re-fit the mixture at the point estimate's component
// count, and read percentile intervals off the replicate distribution of
// each component's weight and mean.
//
// Replicates are embarrassingly parallel and run on internal/par under the
// repo-wide determinism contract: every replicate seeds its own counter-based
// RNG stream from (Seed, replicate index), writes only its own index-addressed
// result slot, and the percentile reduction happens after the join on one
// goroutine — so the intervals are bit-identical at any worker count.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"darkcrowd/internal/obs"
	"darkcrowd/internal/par"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/tz"
)

// BootstrapOptions configures BootstrapMixtureCI.
type BootstrapOptions struct {
	// Replicates is the number of bootstrap resamples. Defaults to 200.
	Replicates int
	// Seed seeds the resampling RNG. The RNG is a package-local splitmix64
	// (not math/rand), so a (Seed, Replicates) pair produces the same
	// intervals on every Go version and platform.
	Seed int64
	// Level is the two-sided confidence level in (0, 1). Defaults to 0.95.
	Level float64
	// Parallelism is the number of workers running replicates: 0 uses every
	// core, 1 forces the sequential path. The intervals are bit-identical
	// for every setting.
	Parallelism int
	// EM tunes the per-replicate refits; Period is forced to 24. Defaults
	// match the point fit's defaults.
	EM stats.EMConfig
	// Context, when non-nil, cancels a long bootstrap between replicates.
	Context context.Context
	// Obs, when non-nil, receives a "bootstrap" stage span with per-shard
	// timings plus replicate counters. Observation only.
	Obs *obs.Observer
}

// ComponentCI is the bootstrap interval around one point-estimate mixture
// component. Offsets are UTC offsets on the real line centered on the point
// estimate (not re-wrapped into (-12, +12]), so Lo <= Offset <= Hi always
// holds and an interval straddling the date line stays readable.
type ComponentCI struct {
	Weight   float64 `json:"weight"`
	WeightLo float64 `json:"weight_lo"`
	WeightHi float64 `json:"weight_hi"`
	Offset   float64 `json:"offset"`
	OffsetLo float64 `json:"offset_lo"`
	OffsetHi float64 `json:"offset_hi"`
}

// BootstrapResult is the full bootstrap report, serialized into the
// geolocation JSON under "confidence" when the feature is on.
type BootstrapResult struct {
	// Replicates and Seed pin the resampling so a verifier can regenerate
	// the intervals bit-for-bit.
	Replicates int   `json:"replicates"`
	Seed       int64 `json:"seed"`
	// Level is the two-sided confidence level the intervals cover.
	Level float64 `json:"level"`
	// Components aligns index-for-index with Geolocation.Components.
	Components []ComponentCI `json:"components"`
	// Failed counts replicates whose refit failed outright (not merely
	// degraded); they are excluded from the percentile computation.
	Failed int `json:"failed,omitempty"`
}

// splitmix64 advances the state and returns the next value of the stream.
// The generator is Steele et al.'s SplitMix64 — tiny, fast, and fully
// specified here so bootstrap resampling never depends on math/rand
// internals that may change between Go releases.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// boundedRand maps one splitmix64 draw onto [0, n) by the Lemire
// multiply-shift reduction. The residual modulo bias is < n/2^64 —
// unmeasurable at crowd sizes — and the mapping is exact integer
// arithmetic, identical on every platform.
func boundedRand(state *uint64, n uint64) uint64 {
	hi, _ := bits.Mul64(splitmix64(state), n)
	return hi
}

// replicateState derives the RNG state for one replicate from the run seed.
// Seeding each replicate independently (rather than sharing one sequential
// stream) is what lets replicates run on any worker in any order and still
// draw the same resample.
func replicateState(seed int64, r int) uint64 {
	state := uint64(seed) ^ 0x6a09e667f3bcc909 // avoid the all-zeros fixed point for seed 0
	state += 0x9e3779b97f4a7c15 * uint64(r+1)
	// One warm-up draw decorrelates adjacent replicate streams.
	splitmix64(&state)
	return state
}

// replicateFit is one replicate's matched per-component readout.
type replicateFit struct {
	weights []float64 // resampled component weights, point-component order
	deltas  []float64 // circular mean deltas vs the point components, zones
	ok      bool
}

// BootstrapMixtureCI computes percentile bootstrap confidence intervals for
// the weights and means of an already-fitted mixture. placement supplies
// the per-user zone rows to resample; point is the point-estimate mixture
// whose components the intervals describe (typically Geolocation.Mixture).
//
// Each replicate refits at fixed k = len(point) (no BIC race, no tidying:
// the question is "how stable are *these* components", not "how many are
// there") and its components are matched to the point components greedily
// by circular mean distance. Degraded refits (non-convergence) stay in the
// pool — discarding them would bias the intervals narrow; refits that fail
// outright or collapse to non-finite parameters are counted in Failed and
// excluded.
func BootstrapMixtureCI(placement *Placement, point stats.Mixture, opts BootstrapOptions) (*BootstrapResult, error) {
	if placement == nil || len(placement.Assignments) == 0 {
		return nil, errors.New("geoloc: bootstrap needs a non-empty placement")
	}
	if len(point) == 0 {
		return nil, errors.New("geoloc: bootstrap needs a fitted mixture")
	}
	if opts.Replicates == 0 {
		opts.Replicates = 200
	}
	if opts.Replicates < 0 {
		return nil, fmt.Errorf("geoloc: bootstrap replicates must be positive, got %d", opts.Replicates)
	}
	if opts.Level == 0 {
		opts.Level = 0.95
	}
	if opts.Level <= 0 || opts.Level >= 1 {
		return nil, fmt.Errorf("geoloc: bootstrap level must be in (0,1), got %g", opts.Level)
	}
	// One table for every replicate: a replicate draws sample indices and
	// fits the table resampled to their slots.
	tab := stats.NewEMTable(placement.Samples(), tz.HoursPerDay)
	n := tab.Len()
	k := len(point)
	if n < k {
		return nil, fmt.Errorf("geoloc: %d users cannot support %d bootstrap components", n, k)
	}
	emCfg := opts.EM
	emCfg.Period = tz.HoursPerDay
	emCfg.Obs = nil // per-replicate EM diagnostics would be pure noise

	o := opts.Obs.Stage("bootstrap")
	defer o.End()
	o.SetWorkers(par.Workers(opts.Parallelism, opts.Replicates))
	var so par.ShardObserver
	if sp := o.SpanRef(); sp != nil {
		so = sp
	}
	fits := make([]replicateFit, opts.Replicates)
	err := par.RangesObserved(opts.Context, opts.Parallelism, opts.Replicates, func(start, end int) error {
		slots := make([]int32, n)
		for r := start; r < end; r++ {
			if opts.Context != nil {
				if err := opts.Context.Err(); err != nil {
					return err
				}
			}
			state := replicateState(opts.Seed, r)
			for i := range slots {
				slots[i] = tab.Slot(int(boundedRand(&state, uint64(n))))
			}
			res, err := tab.Resample(slots).FitMixture(k, emCfg)
			var deg *stats.FitDegradedError
			if errors.As(err, &deg) {
				res, err = deg.Result, nil
			}
			if err != nil {
				continue // counted as Failed after the join
			}
			fits[r] = matchToPoint(point, res.Mixture)
		}
		return nil
	}, so)
	if err != nil {
		return nil, err
	}

	out := &BootstrapResult{
		Replicates: opts.Replicates,
		Seed:       opts.Seed,
		Level:      opts.Level,
		Components: make([]ComponentCI, k),
	}
	weights := make([][]float64, k)
	deltas := make([][]float64, k)
	for _, f := range fits {
		if !f.ok {
			out.Failed++
			continue
		}
		for j := 0; j < k; j++ {
			weights[j] = append(weights[j], f.weights[j])
			deltas[j] = append(deltas[j], f.deltas[j])
		}
	}
	if good := opts.Replicates - out.Failed; good < 2 {
		return nil, fmt.Errorf("geoloc: only %d of %d bootstrap replicates usable", good, opts.Replicates)
	}
	alpha := (1 - opts.Level) / 2
	for j := 0; j < k; j++ {
		sort.Float64s(weights[j])
		sort.Float64s(deltas[j])
		offset := zoneAxisToOffset(point[j].Mean)
		out.Components[j] = ComponentCI{
			Weight:   point[j].Weight,
			WeightLo: percentile(weights[j], alpha),
			WeightHi: percentile(weights[j], 1-alpha),
			Offset:   offset,
			OffsetLo: offset + percentile(deltas[j], alpha),
			OffsetHi: offset + percentile(deltas[j], 1-alpha),
		}
	}
	o.Counter("bootstrap.replicates").Add(int64(opts.Replicates))
	o.Counter("bootstrap.failed").Add(int64(out.Failed))
	return out, nil
}

// matchToPoint pairs a replicate's components with the point components,
// greedily by circular mean distance in point order (point components are
// sorted heaviest-first, so the dominant region claims its nearest refit
// component before lighter ones choose). A refit with a non-finite matched
// parameter marks the whole replicate unusable.
func matchToPoint(point, fit stats.Mixture) replicateFit {
	k := len(point)
	rf := replicateFit{weights: make([]float64, k), deltas: make([]float64, k), ok: true}
	used := make([]bool, len(fit))
	for j := 0; j < k; j++ {
		best, bestD := -1, math.Inf(1)
		for i := range fit {
			if used[i] {
				continue
			}
			d := math.Abs(stats.CircularDiff(fit[i].Mean, point[j].Mean, tz.HoursPerDay))
			if d < bestD {
				best, bestD = i, d
			}
		}
		if best < 0 {
			rf.ok = false
			return rf
		}
		used[best] = true
		w, dm := fit[best].Weight, stats.CircularDiff(fit[best].Mean, point[j].Mean, tz.HoursPerDay)
		if math.IsNaN(w) || math.IsInf(w, 0) || math.IsNaN(dm) || math.IsInf(dm, 0) {
			rf.ok = false
			return rf
		}
		rf.weights[j], rf.deltas[j] = w, dm
	}
	return rf
}

// percentile reads the q-th percentile off an ascending-sorted slice with
// linear interpolation between order statistics. Deterministic given the
// slice; the slice is always built in replicate order and sorted, so the
// result is independent of worker scheduling.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		return sorted[0]
	}
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
