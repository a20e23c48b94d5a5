package profile

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	return refPolishAligned(profiles, generic, rebuild, false)
}

// refPolishAligned is refPolish; with staleZones set, every rebuild aligns
// the kept users by their zones against the caller's generic profile
// instead of the current one. That is the fault a test crowd must expose.
func refPolishAligned(profiles map[string]Profile, generic Profile, rebuild, staleZones bool) (*PolishResult, error) {
	first := generic
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
			alignBy := generic
			if staleZones {
				alignBy = first
			}
			if err := zoneDistances(p, alignBy, dists, rot, scratch); err != nil {
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

// lateFlatCrowd is a crowd that polishing clears in two removing passes.
// Its users follow a sharp diurnal shape, shifted to every zone, and the
// caller's generic profile is that shape blurred halfway to uniform. Pass 1
// removes the near-uniform bots. The user named lateFlatUser sits 40% of
// the way from a blurred zone profile to uniform: closer to that zone than
// to uniform in pass 1, but once the generic profile is rebuilt from the
// sharp users, every zone profile is farther from it than uniform is, so
// pass 2 removes it after all 24 rotations fail.
func lateFlatCrowd() (map[string]Profile, Profile) {
	var sharp, generic Profile
	for h := range sharp {
		d := float64(h - 20)
		sharp[h] = 0.002 + math.Exp(-d*d/6)
	}
	sharp = normalized(sharp)
	u := Uniform()
	for h := range generic {
		generic[h] = 0.5*u[h] + 0.5*sharp[h]
	}
	rng := rand.New(rand.NewSource(7))
	noisy := func(p Profile, amp float64) Profile {
		for h := range p {
			p[h] += amp * rng.Float64()
		}
		return normalized(p)
	}
	profiles := make(map[string]Profile)
	for _, off := range tz.AllOffsets() {
		for k := 0; k < 3; k++ {
			profiles[fmt.Sprintf("zone%+03d-%d", off, k)] = noisy(ZoneProfile(sharp, off), 0.01)
		}
	}
	for k := 0; k < 4; k++ {
		profiles[fmt.Sprintf("bot-%d", k)] = noisy(Uniform(), 0.002)
	}
	var late Profile
	z := ZoneProfile(generic, 3)
	for h := range late {
		late[h] = 0.4*u[h] + 0.6*z[h]
	}
	profiles[lateFlatUser] = late
	return profiles, generic
}

const lateFlatUser = "late-flat"

// twinCrowd is a crowd whose polish depends on realigning the survivors
// before every rebuild. Besides one sharp user per zone and six users
// fading toward uniform, it holds eight twins: each mixes the sharp shape
// at two random zones, so its nearest zone turns on the generic profile's
// exact shape and can flip once that profile is rebuilt. Aligning the
// second rebuild by the pass-1 zones instead runs a fourth pass that
// also removes twin-03.
func twinCrowd() (map[string]Profile, Profile) {
	rng := rand.New(rand.NewSource(43))
	var sharp, generic Profile
	for h := range sharp {
		d := float64(h - 20)
		sharp[h] = 0.002 + math.Exp(-d*d/6)
	}
	sharp = normalized(sharp)
	u := Uniform()
	for h := range generic {
		generic[h] = 0.5*u[h] + 0.5*sharp[h]
	}
	noisy := func(p Profile, amp float64) Profile {
		for h := range p {
			p[h] += amp * rng.Float64()
		}
		return normalized(p)
	}
	mix := func(w float64, a, b Profile) Profile {
		var p Profile
		for h := range p {
			p[h] = w*a[h] + (1-w)*b[h]
		}
		return p
	}
	offs := tz.AllOffsets()
	profiles := make(map[string]Profile)
	for _, off := range offs {
		profiles[fmt.Sprintf("zone%+03d", off)] = noisy(ZoneProfile(sharp, off), 0.01)
	}
	for k := 0; k < 8; k++ {
		a, b := offs[rng.Intn(24)], offs[rng.Intn(24)]
		w := 0.35 + 0.3*rng.Float64()
		profiles[fmt.Sprintf("twin-%02d", k)] = noisy(mix(w, ZoneProfile(sharp, a), ZoneProfile(sharp, b)), 0.005)
	}
	for k := 0; k < 6; k++ {
		z := ZoneProfile(generic, offs[rng.Intn(24)])
		t := 0.2 + 0.5*rng.Float64()
		profiles[fmt.Sprintf("fading-%02d", k)] = noisy(mix(t, u, z), 0.002)
	}
	return profiles, generic
}

func normalized(p Profile) Profile {
	var sum float64
	for _, v := range p {
		sum += v
	}
	for h := range p {
		p[h] /= sum
	}
	return p
}

// TestPolishMatchesThreeSweepDefinition: flat checks after pass 1, and
// full scans only of the survivors before a rebuild, remove the same
// users, in the same order, over the same passes, and keep bit-identical
// profiles. Every crowd loses users after pass 1, so the later passes'
// flat checks, survivor rescans and rebuilds all run against refPolish;
// in the twin crowd the outcome also depends on the survivors' zones
// against each rebuilt generic profile.
func TestPolishMatchesThreeSweepDefinition(t *testing.T) {
	t.Parallel()
	lf, lfGeneric := lateFlatCrowd()
	tw, twGeneric := twinCrowd()
	type crowd struct {
		name     string
		profiles map[string]Profile
		generic  Profile
		late     string // a user that a pass after the first must remove
		stale    bool   // aligning rebuilds by pass-1 zones changes the result
	}
	crowds := []crowd{{"late-flat", lf, lfGeneric, lateFlatUser, false}, {"twins", tw, twGeneric, "", true}}
	if !testing.Short() {
		bots, err := loadBotCrowd()
		if err != nil {
			t.Fatal(err)
		}
		crowds = append(crowds, crowd{"bots", bots.profiles, bots.generic, "", false})
	}
	for _, c := range crowds {
		for _, rebuild := range []bool{true, false} {
			got, err := PolishWith(c.profiles, c.generic, rebuild, ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := refPolish(c.profiles, c.generic, rebuild)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Removed) == 0 {
				t.Fatalf("%s: premise broken: the crowd loses no user to polish", c.name)
			}
			if rebuild {
				// Premise: a pass after the first removes a user that
				// pass 1 kept.
				pass1 := make(map[string]bool, len(got.IDs))
				for i, id := range got.IDs {
					pass1[id] = got.Scans[i].Flat
				}
				var late []string
				for _, id := range want.Removed {
					if !pass1[id] {
						late = append(late, id)
					}
				}
				if len(late) == 0 || want.Iterations < 3 {
					t.Fatalf("%s: premise broken: %d passes remove no user after pass 1", c.name, want.Iterations)
				}
				if c.late != "" && !slices.Contains(late, c.late) {
					t.Fatalf("%s: premise broken: %s is not removed after pass 1 (late removals %v)", c.name, c.late, late)
				}
				if c.stale {
					stale, err := refPolishAligned(c.profiles, c.generic, rebuild, true)
					if err != nil {
						t.Fatal(err)
					}
					if reflect.DeepEqual(stale.Removed, want.Removed) && stale.Iterations == want.Iterations {
						t.Fatalf("%s: premise broken: aligning by pass-1 zones removes the same users", c.name)
					}
				}
			}
			if got.Iterations != want.Iterations {
				t.Errorf("%s rebuild=%v: Iterations = %d, want %d", c.name, rebuild, got.Iterations, want.Iterations)
			}
			if !reflect.DeepEqual(got.Removed, want.Removed) {
				t.Errorf("%s rebuild=%v: Removed = %v, want %v", c.name, rebuild, got.Removed, want.Removed)
			}
			if !reflect.DeepEqual(got.Kept, want.Kept) {
				t.Errorf("%s rebuild=%v: Kept differs (%d users, want %d)", c.name, rebuild, len(got.Kept), len(want.Kept))
			}
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
