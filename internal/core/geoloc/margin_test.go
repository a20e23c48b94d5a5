package geoloc

import (
	"math"
	"testing"

	"darkcrowd/internal/core/profile"
)

// TestPlaceUsersMargins pins the margin plumbing: margins appear for every
// user exactly when requested, are non-negative, and recording them does
// not perturb a single assignment.
func TestPlaceUsersMargins(t *testing.T) {
	profiles, generic := randomProfiles(5, 40)
	plain, err := PlaceUsers(profiles, generic, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Margins != nil {
		t.Fatal("margins recorded without being requested")
	}
	withM, err := PlaceUsers(profiles, generic, PlaceOptions{Margins: true})
	if err != nil {
		t.Fatal(err)
	}
	placementsBitEqual(t, withM, plain)
	if len(withM.Margins) != len(profiles) {
		t.Fatalf("got %d margins for %d users", len(withM.Margins), len(profiles))
	}
	for id, m := range withM.Margins {
		if m < 0 || math.IsNaN(m) {
			t.Fatalf("user %s: bad margin %g", id, m)
		}
		// PlaceOneMargin must agree with the batch sweep bit-for-bit.
		zi, one, err := PlaceOneMargin(profiles[id], generic, PlaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if profile.OffsetOf(zi) != withM.Assignments[id] {
			t.Fatalf("user %s: PlaceOneMargin zone differs from batch", id)
		}
		if math.Float64bits(one) != math.Float64bits(m) {
			t.Fatalf("user %s: PlaceOneMargin margin %g differs from batch %g", id, one, m)
		}
	}
}

// TestMarginUniformProfileIsZero pins the tie case: a uniform profile is
// equidistant from every zone, so its margin is exactly zero.
func TestMarginUniformProfileIsZero(t *testing.T) {
	profiles, generic := randomProfiles(6, 4)
	_ = profiles
	_, margin, err := PlaceOneMargin(profile.Uniform(), generic, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if margin != 0 {
		t.Fatalf("uniform profile margin = %g, want 0", margin)
	}
}

// TestSummarizeMargins checks the order statistics on a hand-built set,
// both odd and even counts.
func TestSummarizeMargins(t *testing.T) {
	p := &Placement{Margins: map[string]float64{"a": 4, "b": 1, "c": 2}}
	s := SummarizeMargins(p)
	if s.Min != 1 || s.Max != 4 || s.Median != 2 {
		t.Fatalf("odd-count stats wrong: %+v", s)
	}
	if want := (4.0 + 1 + 2) / 3; math.Abs(s.Mean-want) > 1e-15 {
		t.Fatalf("mean = %g, want %g", s.Mean, want)
	}
	p.Margins["d"] = 3
	s = SummarizeMargins(p)
	if s.Median != 2.5 {
		t.Fatalf("even-count median = %g, want 2.5", s.Median)
	}
	if SummarizeMargins(&Placement{}) != nil {
		t.Fatal("empty placement must summarize to nil")
	}
}

// TestGeolocateMarginSummary checks the margin summary rides into the
// Geolocation exactly when placement recorded margins.
func TestGeolocateMarginSummary(t *testing.T) {
	profiles, generic := randomProfiles(7, 50)
	off, err := locate(profiles, generic, LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if off.MarginSummary != nil {
		t.Fatal("margin summary present with margins off")
	}
	on, err := locate(profiles, generic, LocateOptions{Margins: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.MarginSummary == nil {
		t.Fatal("margin summary missing with margins on")
	}
	if on.MarginSummary.Min > on.MarginSummary.Median || on.MarginSummary.Median > on.MarginSummary.Max {
		t.Fatalf("summary not ordered: %+v", on.MarginSummary)
	}
}
