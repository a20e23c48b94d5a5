package geoloc

import (
	"math"
	"sync"
	"testing"
	"time"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

var (
	genericOnce sync.Once
	genericProf profile.Profile
	genericErr  error
)

// testGeneric builds (once) a generic profile from a scaled-down synthetic
// Twitter dataset, exactly as the real pipeline does.
func testGeneric(t testing.TB) profile.Profile {
	t.Helper()
	genericOnce.Do(func() {
		ds, err := synth.TwitterDataset(1001, synth.TwitterOptions{Scale: 40})
		if err != nil {
			genericErr = err
			return
		}
		res, err := profile.BuildGeneric(ds, profile.GenericOptions{})
		if err != nil {
			genericErr = err
			return
		}
		genericProf = res.Generic
	})
	if genericErr != nil {
		t.Fatalf("build test generic profile: %v", genericErr)
	}
	return genericProf
}

func crowdProfiles(t *testing.T, ds *trace.Dataset) map[string]profile.Profile {
	t.Helper()
	profiles, err := profile.BuildUserProfiles(ds, profile.BuildOptions{})
	if err != nil {
		t.Fatalf("build user profiles: %v", err)
	}
	return profiles
}

func TestPlaceUsersSingleCountry(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy synthesis in -short mode")
	}
	generic := testGeneric(t)
	de, err := tz.ByCode("de")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.GenerateCrowd(2001, synth.CrowdConfig{
		Name:   "german-crowd",
		Groups: []synth.Group{{Region: de, Users: 120, PostsPerUser: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	placement, err := PlaceUsers(crowdProfiles(t, ds), generic, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Histogram must sum to 1 and peak at UTC+1 or UTC+2 (Germany spends
	// seven months of the year at UTC+2).
	var sum float64
	for _, v := range placement.Histogram {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("histogram sums to %g", sum)
	}
	peakZone := 0
	for zi, v := range placement.Histogram {
		if v > placement.Histogram[peakZone] {
			peakZone = zi
		}
	}
	peakOffset := profile.OffsetOf(peakZone)
	if peakOffset != 1 && peakOffset != 2 {
		t.Errorf("German crowd peak at %s, want UTC+1 or UTC+2 (histogram %v)",
			peakOffset, placement.Histogram)
	}
	// The paper's Fig. 3: values "drop down for timezones further away".
	peakShare := placement.Histogram[peakZone]
	farZone := (peakZone + 12) % 24
	if placement.Histogram[farZone] > peakShare/4 {
		t.Errorf("antipodal zone share %g too close to peak %g",
			placement.Histogram[farZone], peakShare)
	}
}

func TestFitSingleGermanCrowd(t *testing.T) {
	t.Parallel()
	generic := testGeneric(t)
	de, err := tz.ByCode("de")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.GenerateCrowd(2002, synth.CrowdConfig{
		Name:   "german-fit",
		Groups: []synth.Group{{Region: de, Users: 150, PostsPerUser: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	placement, err := PlaceUsers(crowdProfiles(t, ds), generic, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitSingle(placement)
	if err != nil {
		t.Fatal(err)
	}
	if fit.PeakOffset < 0.3 || fit.PeakOffset > 2.7 {
		t.Errorf("fitted peak offset %g, want within UTC+1 +/- DST drift", fit.PeakOffset)
	}
	// sigma ~ 2.5 per the paper; accept a generous band.
	if fit.Gaussian.Sigma < 0.7 || fit.Gaussian.Sigma > 4.5 {
		t.Errorf("fitted sigma %g, want around 2.5", fit.Gaussian.Sigma)
	}
	// Table II regime: single-country fits land around 0.01 average
	// distance, an order of magnitude below the 0.081 baseline.
	if fit.AvgDistance > 0.05 {
		t.Errorf("average point distance %g, want small", fit.AvgDistance)
	}
}

func TestGeolocateMultiCountry(t *testing.T) {
	t.Parallel()
	generic := testGeneric(t)
	ds, err := synth.Fig6bDataset(2003, 60)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := locate(crowdProfiles(t, ds), generic, LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(geo.Components) != 3 {
		t.Fatalf("uncovered %d components, want 3: %v", len(geo.Components), geo.Components)
	}
	// Expect components near UTC-6 (Illinois), UTC+1 (Germany), UTC+8
	// (Malaysia), each within ~1.5 zones (DST smears by up to 1).
	wantOffsets := []float64{-6, 1, 8}
	for _, want := range wantOffsets {
		found := false
		for _, c := range geo.Components {
			if math.Abs(c.Offset-want) <= 1.6 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no component near UTC%+g in %v", want, geo.Components)
		}
	}
	if geo.AvgDistance > 0.05 {
		t.Errorf("mixture avg distance %g, want small", geo.AvgDistance)
	}
}

func TestGeolocateSingleCountryOneComponent(t *testing.T) {
	t.Parallel()
	generic := testGeneric(t)
	jp, err := tz.ByCode("jp")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.GenerateCrowd(2004, synth.CrowdConfig{
		Name:   "jp-crowd",
		Groups: []synth.Group{{Region: jp, Users: 100, PostsPerUser: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	geo, err := locate(crowdProfiles(t, ds), generic, LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(geo.Components) != 1 {
		t.Fatalf("Japanese crowd: %d components, want 1: %v", len(geo.Components), geo.Components)
	}
	if math.Abs(geo.Components[0].Offset-9) > 1.2 {
		t.Errorf("Japanese component at UTC%+.2f, want ~+9", geo.Components[0].Offset)
	}
	if geo.Components[0].NearestOffset != 9 {
		t.Errorf("nearest offset %v, want UTC+9", geo.Components[0].NearestOffset)
	}
}

func TestPlaceUsersErrors(t *testing.T) {
	t.Parallel()
	generic := testGeneric(t)
	if _, err := PlaceUsers(nil, generic, PlaceOptions{}); err == nil {
		t.Error("empty profiles should fail")
	}
}

func TestPlacementSamples(t *testing.T) {
	t.Parallel()
	p := &Placement{
		Assignments: map[string]tz.Offset{"b": 1, "a": -6},
		Histogram:   make([]float64, 24),
		Counts:      make([]int, 24),
	}
	samples := p.Samples()
	if len(samples) != 2 {
		t.Fatalf("%d samples", len(samples))
	}
	// Sorted by user: "a" (-6 -> index 5) then "b" (+1 -> index 12).
	if samples[0] != float64(profile.ZoneIndex(-6)) || samples[1] != float64(profile.ZoneIndex(1)) {
		t.Errorf("samples = %v", samples)
	}
}

func TestDistanceKindString(t *testing.T) {
	t.Parallel()
	if DistanceCircularEMD.String() != "circular-emd" || DistanceLinearEMD.String() != "linear-emd" {
		t.Error("distance kind strings wrong")
	}
	if DistanceKind(9).String() != "DistanceKind(9)" {
		t.Error("unknown distance kind string wrong")
	}
}

func TestMostActiveUsers(t *testing.T) {
	t.Parallel()
	ds := trace.NewDataset("", []trace.Post{
		{UserID: "light"}, {UserID: "heavy"}, {UserID: "heavy"},
		{UserID: "heavy"}, {UserID: "mid"}, {UserID: "mid"},
	})
	top := MostActiveUsers(ds, 2)
	if len(top) != 2 || top[0] != "heavy" || top[1] != "mid" {
		t.Errorf("MostActiveUsers = %v", top)
	}
	all := MostActiveUsers(ds, 10)
	if len(all) != 3 {
		t.Errorf("MostActiveUsers(10) = %v", all)
	}
}

func TestComponentString(t *testing.T) {
	t.Parallel()
	c := Component{Weight: 0.7, Offset: 1.2, NearestOffset: 1, Sigma: 2.5}
	s := c.String()
	if s == "" {
		t.Error("empty component string")
	}
}

func TestPlacementShiftInvariant(t *testing.T) {
	t.Parallel()
	// End-to-end invariant: adding k hours to every post timestamp makes
	// the crowd look like it lives k zones further west (their whole
	// rhythm happens k hours later in UTC), so the placement peak must
	// move by -k zones (mod 24).
	generic := testGeneric(t)
	jp, err := tz.ByCode("jp")
	if err != nil {
		t.Fatal(err)
	}
	base, err := synth.GenerateCrowd(2042, synth.CrowdConfig{
		Name:   "shift-invariant",
		Groups: []synth.Group{{Region: jp, Users: 60, PostsPerUser: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	peakOf := func(ds *trace.Dataset) tz.Offset {
		t.Helper()
		placement, err := PlaceUsers(crowdProfiles(t, ds), generic, PlaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for zi, v := range placement.Histogram {
			if v > placement.Histogram[best] {
				best = zi
			}
		}
		return profile.OffsetOf(best)
	}
	basePeak := peakOf(base)
	for _, k := range []int{1, 3, -2, 6} {
		posts := make([]trace.Post, base.NumPosts())
		for i := range posts {
			posts[i] = base.Post(i)
			posts[i].Time = posts[i].Time.Add(time.Duration(k) * time.Hour)
		}
		shifted := trace.NewDataset(base.Name, posts)
		shifted.GroundTruth = base.GroundTruth
		got := peakOf(shifted)
		want := (basePeak - tz.Offset(k)).Normalize()
		if got.CircularDistance(want) > 1 {
			t.Errorf("shift %+dh: peak %v, want ~%v (base %v)", k, got, want, basePeak)
		}
	}
}

// TestNearestOffsetRounding is the regression test for the placement
// rounding bug: int(mean+0.5) truncates toward zero, so a slightly
// negative zone-axis mean (legal on the circular axis) rounded to zone 0
// instead of wrapping to zone 23. math.Floor(mean+0.5) rounds uniformly.
func TestNearestOffsetRounding(t *testing.T) {
	t.Parallel()
	tests := []struct {
		mean float64
		zone int // expected zone index after rounding and wrapping
	}{
		{0, 0},
		{0.49, 0},
		{0.5, 1}, // half rounds up, not toward zero
		{11.5, 12},
		{23.4, 23},
		{23.6, 0},  // wraps past the top of the axis
		{-0.4, 0},  // rounds to zone 0...
		{-0.6, 23}, // ...but past -0.5 wraps to zone 23, the truncation bug's victim
		{-1.5, 23}, // Floor(-1.0) = -1 -> zone 23
		{-11.7, 12},
	}
	for _, tt := range tests {
		want := profile.OffsetOf(tt.zone)
		if got := nearestOffset(tt.mean); got != want {
			t.Errorf("nearestOffset(%v) = %v, want %v (zone %d)", tt.mean, got, want, tt.zone)
		}
	}
}
