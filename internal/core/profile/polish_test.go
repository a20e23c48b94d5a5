package profile

import (
	"reflect"
	"sync"
	"testing"

	"darkcrowd/internal/synth"
	"darkcrowd/internal/tz"
)

// refPolish is the three-sweep polish that Polish replaced: per pass it
// scans every kept user for flatness, then sorts the kept users again and
// recomputes their zone distances against the same generic profile for
// the rebuild. It is the definition Polish is checked against.
func refPolish(profiles map[string]Profile, generic Profile, rebuild bool) (*PolishResult, error) {
	kept := make(map[string]Profile, len(profiles))
	for id, p := range profiles {
		kept[id] = p
	}
	res := &PolishResult{}
	uniform := Uniform()
	dists := make([]float64, tz.HoursPerDay)
	rot := make([]float64, tz.HoursPerDay)
	scratch := make([]float64, 2*tz.HoursPerDay)
	for iter := 0; iter < 10; iter++ {
		res.Iterations = iter + 1
		var removedThisPass []string
		for _, id := range SortedUserIDs(kept) {
			flat, err := isFlat(kept[id], uniform, generic, dists, rot, scratch)
			if err != nil {
				return nil, err
			}
			if flat {
				removedThisPass = append(removedThisPass, id)
			}
		}
		for _, id := range removedThisPass {
			delete(kept, id)
			res.Removed = append(res.Removed, id)
		}
		if len(removedThisPass) == 0 || !rebuild || len(kept) == 0 {
			break
		}
		var aligned []Profile
		for _, id := range SortedUserIDs(kept) {
			p := kept[id]
			if err := zoneDistances(p, generic, dists, rot, scratch); err != nil {
				return nil, err
			}
			aligned = append(aligned, p.ToLocal(OffsetOf(nearestZone(dists))))
		}
		g, err := Aggregate(aligned)
		if err != nil {
			return nil, err
		}
		generic = g
	}
	res.Kept = kept
	return res, nil
}

// botCrowd is a scaled Table I crowd with 5% flat-profile bots in UTC
// frame, plus a generic profile built from a separate clean crowd. Built
// once and shared read-only by the tests and the benchmark.
type botCrowd struct {
	profiles map[string]Profile
	generic  Profile
}

var loadBotCrowd = sync.OnceValues(func() (botCrowd, error) {
	ds, err := synth.TwitterDataset(1901, synth.TwitterOptions{Scale: 40, BotFraction: 0.05})
	if err != nil {
		return botCrowd{}, err
	}
	profiles, err := BuildUserProfiles(ds, BuildOptions{})
	if err != nil {
		return botCrowd{}, err
	}
	clean, err := synth.TwitterDataset(1902, synth.TwitterOptions{Scale: 60})
	if err != nil {
		return botCrowd{}, err
	}
	res, err := BuildGeneric(clean, GenericOptions{})
	if err != nil {
		return botCrowd{}, err
	}
	return botCrowd{profiles, res.Generic}, nil
})

// TestPolishMatchesThreeSweepDefinition: reusing each user's scan
// distances in the rebuild removes the same users, in the same order,
// over the same passes, and keeps bit-identical profiles.
func TestPolishMatchesThreeSweepDefinition(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy synthesis in -short mode")
	}
	crowd, err := loadBotCrowd()
	if err != nil {
		t.Fatal(err)
	}
	profiles, generic := crowd.profiles, crowd.generic
	for _, rebuild := range []bool{true, false} {
		got, err := PolishWith(profiles, generic, rebuild, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := refPolish(profiles, generic, rebuild)
		if err != nil {
			t.Fatal(err)
		}
		if rebuild && want.Iterations < 2 {
			t.Fatalf("premise broken: the bot crowd needs %d polish pass(es), want >= 2", want.Iterations)
		}
		if len(want.Removed) == 0 {
			t.Fatal("premise broken: the bot crowd loses no user to polish")
		}
		if got.Iterations != want.Iterations {
			t.Errorf("rebuild=%v: Iterations = %d, want %d", rebuild, got.Iterations, want.Iterations)
		}
		if !reflect.DeepEqual(got.Removed, want.Removed) {
			t.Errorf("rebuild=%v: Removed = %v, want %v", rebuild, got.Removed, want.Removed)
		}
		if !reflect.DeepEqual(got.Kept, want.Kept) {
			t.Errorf("rebuild=%v: Kept differs (%d users, want %d)", rebuild, len(got.Kept), len(want.Kept))
		}
	}
}

// TestPolishDefinition checks §IV-C straight from its definition: a user
// whose profile is exactly the uniform 1/24 profile is at EMD 0 from it
// and is removed in the first pass; a user whose profile is exactly a
// zone reference profile is at EMD 0 from that zone and is kept, for
// every offset.
func TestPolishDefinition(t *testing.T) {
	t.Parallel()
	generic := Profile{
		0.020, 0.012, 0.008, 0.006, 0.006, 0.010, 0.022, 0.036,
		0.048, 0.055, 0.058, 0.060, 0.060, 0.058, 0.056, 0.055,
		0.054, 0.055, 0.058, 0.062, 0.064, 0.060, 0.045, 0.032,
	}
	profiles := map[string]Profile{"flat": Uniform()}
	for _, off := range tz.AllOffsets() {
		profiles[off.String()] = ZoneProfile(generic, off)
	}
	for _, rebuild := range []bool{true, false} {
		res, err := PolishWith(profiles, generic, rebuild, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Without rebuild polish stops after pass 1; with it, pass 2
		// removes nothing. Either way "flat" went in pass 1.
		wantIters := 1
		if rebuild {
			wantIters = 2
		}
		if !reflect.DeepEqual(res.Removed, []string{"flat"}) || res.Iterations != wantIters {
			t.Errorf("rebuild=%v: Removed = %v after %d passes, want [flat] after %d",
				rebuild, res.Removed, res.Iterations, wantIters)
		}
		for _, off := range tz.AllOffsets() {
			if _, ok := res.Kept[off.String()]; !ok {
				t.Errorf("rebuild=%v: zone profile for %v removed", rebuild, off)
			}
		}
	}
}

// BenchmarkPolish measures iterative polish with rebuild over a scaled
// Table I crowd with 5% bots.
func BenchmarkPolish(b *testing.B) {
	crowd, err := loadBotCrowd()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PolishWith(crowd.profiles, crowd.generic, true, ScanOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
