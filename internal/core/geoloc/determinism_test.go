package geoloc

// Property tests for the sharded placement engine: every Parallelism
// setting must produce bit-for-bit the same Placement — same Histogram,
// Counts, Assignments and Samples — as the sequential path, on random
// crowds and on the degenerate shapes (single user, all-identical
// profiles). "Bit-for-bit" is literal: float64 equality, not tolerance.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"darkcrowd/internal/core/profile"
)

// workerCounts are the pool sizes the properties quantify over; 7 and 16
// deliberately do not divide typical crowd sizes, and 16 exceeds the
// shard count for small crowds.
var workerCounts = []int{1, 2, 4, 7, 16}

// randomCrowd builds n seeded-random normalized profiles.
func randomCrowd(seed int64, n int) map[string]profile.Profile {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]profile.Profile, n)
	for i := 0; i < n; i++ {
		var p profile.Profile
		total := 0.0
		for h := range p {
			v := rng.Float64()
			p[h] = v
			total += v
		}
		for h := range p {
			p[h] /= total
		}
		out[fmt.Sprintf("u%04d", i)] = p
	}
	return out
}

// samePlacement fails the test unless a and b are bit-identical.
func samePlacement(t *testing.T, want, got *Placement, workers int) {
	t.Helper()
	if !reflect.DeepEqual(want.Assignments, got.Assignments) {
		t.Errorf("workers=%d: Assignments differ from sequential", workers)
	}
	if !reflect.DeepEqual(want.Counts, got.Counts) {
		t.Errorf("workers=%d: Counts differ: want %v, got %v", workers, want.Counts, got.Counts)
	}
	for zi := range want.Histogram {
		if math.Float64bits(want.Histogram[zi]) != math.Float64bits(got.Histogram[zi]) {
			t.Errorf("workers=%d: Histogram[%d] not bit-identical: %v vs %v",
				workers, zi, want.Histogram[zi], got.Histogram[zi])
		}
	}
	wantS, gotS := want.Samples(), got.Samples()
	if !reflect.DeepEqual(wantS, gotS) {
		t.Errorf("workers=%d: Samples differ", workers)
	}
}

func TestPlaceUsersDeterministic(t *testing.T) {
	t.Parallel()
	generic := testGeneric(t)
	crowds := map[string]map[string]profile.Profile{
		"random-307": randomCrowd(1, 307),
		"random-64":  randomCrowd(2, 64),
		"single-user": {
			"only": randomCrowd(3, 1)["u0000"],
		},
		"all-identical": func() map[string]profile.Profile {
			p := randomCrowd(4, 1)["u0000"]
			out := make(map[string]profile.Profile)
			for i := 0; i < 50; i++ {
				out[fmt.Sprintf("clone-%02d", i)] = p
			}
			return out
		}(),
	}
	for name, crowd := range crowds {
		crowd := crowd
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			seq, err := PlaceUsers(crowd, generic, PlaceOptions{Parallelism: 1})
			if err != nil {
				t.Fatalf("sequential placement: %v", err)
			}
			for _, workers := range workerCounts[1:] {
				par, err := PlaceUsers(crowd, generic, PlaceOptions{Parallelism: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				samePlacement(t, seq, par, workers)
			}
		})
	}
}

func TestPlaceUsersEmptyCrowdAllWorkerCounts(t *testing.T) {
	t.Parallel()
	generic := testGeneric(t)
	for _, workers := range workerCounts {
		if _, err := PlaceUsers(nil, generic, PlaceOptions{Parallelism: workers}); err == nil {
			t.Errorf("workers=%d: expected error on empty crowd", workers)
		}
	}
}

func TestGeolocateDeterministic(t *testing.T) {
	t.Parallel()
	generic := testGeneric(t)
	crowd := randomCrowd(5, 200)
	seq, err := locate(crowd, generic, LocateOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("sequential geolocate: %v", err)
	}
	for _, workers := range workerCounts[1:] {
		par, err := locate(crowd, generic, LocateOptions{Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		samePlacement(t, seq.Placement, par.Placement, workers)
		if !reflect.DeepEqual(seq.Mixture, par.Mixture) {
			t.Errorf("workers=%d: mixtures differ: %+v vs %+v", workers, seq.Mixture, par.Mixture)
		}
		if !reflect.DeepEqual(seq.Components, par.Components) {
			t.Errorf("workers=%d: components differ", workers)
		}
		if math.Float64bits(seq.BIC) != math.Float64bits(par.BIC) ||
			math.Float64bits(seq.AvgDistance) != math.Float64bits(par.AvgDistance) ||
			math.Float64bits(seq.StdDistance) != math.Float64bits(par.StdDistance) {
			t.Errorf("workers=%d: fit metrics not bit-identical", workers)
		}
	}
}

func TestPlaceUsersCancelledContext(t *testing.T) {
	t.Parallel()
	generic := testGeneric(t)
	crowd := randomCrowd(6, 600)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := PlaceUsers(crowd, generic, PlaceOptions{Parallelism: workers, Context: ctx})
		if err == nil {
			t.Errorf("workers=%d: expected context error", workers)
		}
	}
}

// BenchmarkPlaceUsers measures the placement sweep over random crowds of
// 1k, 10k and 100k users at 1, 2, 4 and 8 workers.
func BenchmarkPlaceUsers(b *testing.B) {
	generic := testGeneric(b)
	for _, size := range []int{1_000, 10_000, 100_000} {
		crowd := randomCrowd(int64(size), size)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("users=%d/workers=%d", size, workers), func(b *testing.B) {
				opts := PlaceOptions{Parallelism: workers}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := PlaceUsers(crowd, generic, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
