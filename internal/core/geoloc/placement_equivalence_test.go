package geoloc

// Equivalence tests pinning the all-rotations placement kernel to the
// legacy 24-call per-zone EMD loop, bit for bit.

import (
	"math/rand"
	"sort"
	"testing"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/tz"
)

func randomProfile(rng *rand.Rand) profile.Profile {
	var p profile.Profile
	var sum float64
	for h := range p {
		p[h] = rng.Float64()
		if rng.Intn(6) == 0 {
			p[h] = 0 // zero bins exercise median ties
		}
		sum += p[h]
	}
	if sum == 0 {
		p[0], sum = 1, 1
	}
	for h := range p {
		p[h] /= sum
	}
	return p
}

// legacyNearestZoneIndex is the pre-kernel implementation: one circular EMD
// per materialized zone profile, strict less-than argmin.
func legacyNearestZoneIndex(p profile.Profile, zones []profile.Profile, scratch []float64) (int, error) {
	best := -1
	bestDist := 0.0
	for zi := range zones {
		d, err := stats.EMDCircularScratch(p[:], zones[zi][:], scratch)
		if err != nil {
			return 0, err
		}
		if best == -1 || d < bestDist {
			best = zi
			bestDist = d
		}
	}
	return best, nil
}

func TestNearestZoneIndexMatchesLegacy(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	scratch := make([]float64, 2*tz.HoursPerDay)
	for trial := 0; trial < 200; trial++ {
		p := randomProfile(rng)
		generic := randomProfile(rng)
		if trial%17 == 0 {
			generic = p // identical profiles: every rotation distance ties at some zone
		}
		zones := profile.ZoneProfiles(generic)
		want, err := legacyNearestZoneIndex(p, zones, scratch)
		if err != nil {
			t.Fatal(err)
		}
		got, margin, err := PlaceOneMargin(p, generic, PlaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: PlaceOneMargin = %d, legacy %d", trial, got, want)
		}
		// The margin must be exactly the per-zone loop's runner-up gap.
		var all []float64
		for zi := range zones {
			d, err := stats.EMDCircularScratch(p[:], zones[zi][:], scratch)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, d)
		}
		sort.Float64s(all)
		if wantMargin := all[1] - all[0]; margin != wantMargin {
			t.Fatalf("trial %d: margin = %g, legacy runner-up gap %g", trial, margin, wantMargin)
		}
	}
}

// TestNearestZoneIndexUniformTies pins tie-breaking: a uniform profile is
// equidistant from every zone, and both implementations must pick zone 0.
func TestNearestZoneIndexUniformTies(t *testing.T) {
	t.Parallel()
	uniform := profile.Uniform()
	rng := rand.New(rand.NewSource(8))
	generic := randomProfile(rng)
	scratch := make([]float64, 2*tz.HoursPerDay)
	got, _, err := PlaceOneMargin(uniform, generic, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyNearestZoneIndex(uniform, profile.ZoneProfiles(generic), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tie-break differs: kernel %d, legacy %d", got, want)
	}
}

// TestPlaceUsersSteadyStateAllocs confirms placement's per-user work is
// allocation-free once the worker's scanner exists.
func TestPlaceUsersSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomProfile(rng)
	generic := randomProfile(rng)
	var s profile.Scanner
	avg := testing.AllocsPerRun(100, func() {
		if _, err := s.Scan(p, generic); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("per-user placement allocates %v times, want 0", avg)
	}
}
