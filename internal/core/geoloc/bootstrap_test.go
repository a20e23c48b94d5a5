package geoloc

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"darkcrowd/internal/stats"
)

// bootstrapFixture builds a two-region crowd, places it, and fits the point
// mixture the bootstrap will wrap intervals around.
func bootstrapFixture(t *testing.T) (*Placement, stats.Mixture) {
	t.Helper()
	profiles, generic := randomProfiles(11, 120)
	placement, err := PlaceUsers(profiles, generic, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	geo, err := FitPlacement(placement, GeolocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return placement, geo.Mixture
}

// TestBootstrapDeterministicAcrossWorkers is the repo-wide determinism
// property applied to the bootstrap: the intervals must be bit-for-bit
// identical at every worker count, because replicate streams are seeded by
// replicate index and the percentile reduction happens after the join.
func TestBootstrapDeterministicAcrossWorkers(t *testing.T) {
	placement, point := bootstrapFixture(t)
	opts := BootstrapOptions{Replicates: 64, Seed: 42}
	var want *BootstrapResult
	for _, workers := range []int{1, 2, 7, 16} {
		opts.Parallelism = workers
		got, err := BootstrapMixtureCI(placement, point, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: bootstrap result differs from workers=1:\n got %+v\nwant %+v", workers, got, want)
		}
		for j := range got.Components {
			g, w := got.Components[j], want.Components[j]
			for _, pair := range [][2]float64{
				{g.WeightLo, w.WeightLo}, {g.WeightHi, w.WeightHi},
				{g.OffsetLo, w.OffsetLo}, {g.OffsetHi, w.OffsetHi},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("workers=%d component %d: interval bits differ: %x vs %x",
						workers, j, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
				}
			}
		}
	}
}

// TestBootstrapMatchesPerReplicateFit: the replicates fit one shared
// table resampled by slot, and must give bit for bit the intervals of
// fitting each replicate's resampled zone values with FitMixtureEM, at
// workers 1, 2 and 7.
func TestBootstrapMatchesPerReplicateFit(t *testing.T) {
	placement, point := bootstrapFixture(t)
	const replicates, seed = 48, 7
	samples := placement.Samples()
	n, k := len(samples), len(point)
	want := &BootstrapResult{Replicates: replicates, Seed: seed, Level: 0.95, Components: make([]ComponentCI, k)}
	weights, deltas := make([][]float64, k), make([][]float64, k)
	for r := 0; r < replicates; r++ {
		state := replicateState(seed, r)
		resampled := make([]float64, n)
		for i := range resampled {
			resampled[i] = samples[boundedRand(&state, uint64(n))]
		}
		res, err := stats.FitMixtureEM(resampled, k, stats.EMConfig{Period: 24})
		var deg *stats.FitDegradedError
		if errors.As(err, &deg) {
			res, err = deg.Result, nil
		}
		f := replicateFit{}
		if err == nil {
			f = matchToPoint(point, res.Mixture)
		}
		if !f.ok {
			want.Failed++
			continue
		}
		for j := range point {
			weights[j] = append(weights[j], f.weights[j])
			deltas[j] = append(deltas[j], f.deltas[j])
		}
	}
	alpha := (1 - want.Level) / 2
	for j := range point {
		sort.Float64s(weights[j])
		sort.Float64s(deltas[j])
		offset := zoneAxisToOffset(point[j].Mean)
		want.Components[j] = ComponentCI{
			Weight: point[j].Weight, WeightLo: percentile(weights[j], alpha), WeightHi: percentile(weights[j], 1-alpha),
			Offset: offset, OffsetLo: offset + percentile(deltas[j], alpha), OffsetHi: offset + percentile(deltas[j], 1-alpha),
		}
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := BootstrapMixtureCI(placement, point, BootstrapOptions{Replicates: replicates, Seed: seed, Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestBootstrapIntervalsSane checks the intervals' shape: one CI per point
// component, ordered bounds, weights inside [0,1], and the point estimates
// echoed verbatim.
func TestBootstrapIntervalsSane(t *testing.T) {
	placement, point := bootstrapFixture(t)
	res, err := BootstrapMixtureCI(placement, point, BootstrapOptions{Replicates: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicates != 64 || res.Seed != 1 || res.Level != 0.95 {
		t.Fatalf("echo fields wrong: %+v", res)
	}
	if len(res.Components) != len(point) {
		t.Fatalf("%d CIs for %d components", len(res.Components), len(point))
	}
	for j, ci := range res.Components {
		if ci.WeightLo > ci.WeightHi || ci.OffsetLo > ci.OffsetHi {
			t.Fatalf("component %d: unordered interval %+v", j, ci)
		}
		if ci.WeightLo < 0 || ci.WeightHi > 1 {
			t.Fatalf("component %d: weight interval outside [0,1]: %+v", j, ci)
		}
		if math.Float64bits(ci.Weight) != math.Float64bits(point[j].Weight) {
			t.Fatalf("component %d: point weight not echoed", j)
		}
		if ci.OffsetLo > ci.Offset || ci.Offset > ci.OffsetHi {
			// Percentile bootstrap can in principle exclude the point, but a
			// seeded two-region fixture with 120 users should not.
			t.Fatalf("component %d: point offset %g outside CI [%g, %g]", j, ci.Offset, ci.OffsetLo, ci.OffsetHi)
		}
		if ci.WeightLo > ci.Weight || ci.Weight > ci.WeightHi {
			// The same caveat: a percentile interval can in principle
			// exclude the point weight, but not on this fixture.
			t.Fatalf("component %d: point weight %g outside CI [%g, %g]", j, ci.Weight, ci.WeightLo, ci.WeightHi)
		}
	}
}

// TestBootstrapSeedChangesIntervals pins that the seed actually steers the
// resampling: two different seeds must not produce identical intervals.
func TestBootstrapSeedChangesIntervals(t *testing.T) {
	placement, point := bootstrapFixture(t)
	a, err := BootstrapMixtureCI(placement, point, BootstrapOptions{Replicates: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootstrapMixtureCI(placement, point, BootstrapOptions{Replicates: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Components, b.Components) {
		t.Fatal("different seeds produced identical intervals")
	}
}

// TestBootstrapRejectsBadInputs covers the argument contract.
func TestBootstrapRejectsBadInputs(t *testing.T) {
	placement, point := bootstrapFixture(t)
	if _, err := BootstrapMixtureCI(nil, point, BootstrapOptions{}); err == nil {
		t.Fatal("nil placement accepted")
	}
	if _, err := BootstrapMixtureCI(placement, nil, BootstrapOptions{}); err == nil {
		t.Fatal("empty mixture accepted")
	}
	if _, err := BootstrapMixtureCI(placement, point, BootstrapOptions{Level: 1.5}); err == nil {
		t.Fatal("level outside (0,1) accepted")
	}
	if _, err := BootstrapMixtureCI(placement, point, BootstrapOptions{Replicates: -3}); err == nil {
		t.Fatal("negative replicates accepted")
	}
}

// TestSplitmixBoundedRand pins the RNG primitives: the stream is the
// published SplitMix64 sequence and the bounded reduction stays in range.
func TestSplitmixBoundedRand(t *testing.T) {
	// Reference values for seed 0 from the SplitMix64 specification.
	state := uint64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := splitmix64(&state); got != w {
			t.Fatalf("splitmix64 draw %d = %#x, want %#x", i, got, w)
		}
	}
	state = 12345
	for i := 0; i < 1000; i++ {
		if v := boundedRand(&state, 7); v >= 7 {
			t.Fatalf("boundedRand returned %d for bound 7", v)
		}
	}
}
