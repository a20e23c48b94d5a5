package geoloc

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/synth"
)

// randomProfiles builds n normalized random profiles plus a peaked generic
// profile — enough structure for placement to spread users across zones.
func randomProfiles(seed int64, n int) (map[string]profile.Profile, profile.Profile) {
	rng := rand.New(rand.NewSource(seed))
	var generic profile.Profile
	total := 0.0
	for h := range generic {
		// Diurnal-ish shape: low at night, high in the evening.
		generic[h] = 0.2 + float64(h%12) + 3*float64(h/18)
		total += generic[h]
	}
	for h := range generic {
		generic[h] /= total
	}
	profiles := make(map[string]profile.Profile, n)
	for i := 0; i < n; i++ {
		shifted := generic.Shift(rng.Intn(24))
		var p profile.Profile
		tot := 0.0
		for h := range p {
			p[h] = shifted[h] + 0.05*rng.Float64()
			tot += p[h]
		}
		for h := range p {
			p[h] /= tot
		}
		profiles[fmt.Sprintf("user-%03d", i)] = p
	}
	return profiles, generic
}

func placementsBitEqual(t *testing.T, got, want *Placement) {
	t.Helper()
	if !reflect.DeepEqual(got.Assignments, want.Assignments) {
		t.Fatal("assignments differ")
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatal("counts differ")
	}
	for zi := range want.Histogram {
		if math.Float64bits(got.Histogram[zi]) != math.Float64bits(want.Histogram[zi]) {
			t.Fatalf("histogram[%d]: %x vs %x", zi, math.Float64bits(got.Histogram[zi]), math.Float64bits(want.Histogram[zi]))
		}
	}
}

func marginsBitEqual(t *testing.T, got, want *Placement) {
	t.Helper()
	if len(got.Margins) != len(want.Margins) {
		t.Fatalf("%d margins, want %d", len(got.Margins), len(want.Margins))
	}
	for id, m := range want.Margins {
		if math.Float64bits(got.Margins[id]) != math.Float64bits(m) {
			t.Fatalf("margin of %s: %g, want %g", id, got.Margins[id], m)
		}
	}
}

// locate runs LocateCrowd without polishing and returns its fit, for the
// placement-and-fit tests.
func locate(profiles map[string]profile.Profile, generic profile.Profile, opts LocateOptions) (*Geolocation, error) {
	opts.SkipPolish = true
	_, geo, err := LocateCrowd(profiles, generic, opts)
	return geo, err
}

// locateCrowd is a test crowd with its generic profile.
type locateCrowd struct {
	name     string
	profiles map[string]profile.Profile
	generic  profile.Profile
}

// loadLocateCrowds builds the two crowds the one-step tests run on: the
// polish tests' bot crowd (a scaled Table I crowd with 5% flat-profile
// bots, which polishing clears in more than one pass) and a random crowd
// of shifted diurnal profiles mixed with near-uniform ones.
var loadLocateCrowds = sync.OnceValues(func() ([]locateCrowd, error) {
	ds, err := synth.TwitterDataset(1901, synth.TwitterOptions{Scale: 40, BotFraction: 0.05})
	if err != nil {
		return nil, err
	}
	bots, err := profile.BuildUserProfiles(ds, profile.BuildOptions{})
	if err != nil {
		return nil, err
	}
	clean, err := synth.TwitterDataset(1902, synth.TwitterOptions{Scale: 60})
	if err != nil {
		return nil, err
	}
	gen, err := profile.BuildGeneric(clean, profile.GenericOptions{})
	if err != nil {
		return nil, err
	}
	random, generic := randomProfiles(11, 80)
	for id, p := range randomCrowd(12, 20) {
		random[id] = p
	}
	return []locateCrowd{{"bots", bots, gen.Generic}, {"random", random, generic}}, nil
})

// TestLocateCrowdMatchesThreeStepDefinition checks the one step bit for
// bit against its definition: Polish with rebuild, then PlaceUsers over
// the kept users, then FitPlacement.
func TestLocateCrowdMatchesThreeStepDefinition(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy synthesis in -short mode")
	}
	crowds, err := loadLocateCrowds()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range crowds {
		for _, polish := range []bool{true, false} {
			kept := c.profiles
			var want *profile.PolishResult
			if polish {
				if want, err = profile.PolishWith(c.profiles, c.generic, true, profile.ScanOptions{}); err != nil {
					t.Fatal(err)
				}
				if len(want.Removed) == 0 {
					t.Fatalf("%s: premise broken: polishing removes nobody", c.name)
				}
				kept = want.Kept
			}
			for _, margins := range []bool{true, false} {
				wantPl, err := PlaceUsers(kept, c.generic, PlaceOptions{Margins: margins})
				if err != nil {
					t.Fatal(err)
				}
				wantGeo, err := FitPlacement(wantPl, GeolocateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				wantJSON, err := json.Marshal(wantGeo)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 7} {
					what := fmt.Sprintf("%s polish=%v margins=%v workers=%d", c.name, polish, margins, workers)
					gotPolish, gotGeo, err := LocateCrowd(c.profiles, c.generic, LocateOptions{
						SkipPolish:  !polish,
						Margins:     margins,
						Parallelism: workers,
					})
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if polish && (gotPolish.Iterations != want.Iterations ||
						!reflect.DeepEqual(gotPolish.Removed, want.Removed) ||
						!reflect.DeepEqual(gotPolish.Kept, want.Kept)) {
						t.Fatalf("%s: polish differs: %d passes, %d removed; want %d, %d",
							what, gotPolish.Iterations, len(gotPolish.Removed), want.Iterations, len(want.Removed))
					}
					placementsBitEqual(t, gotGeo.Placement, wantPl)
					marginsBitEqual(t, gotGeo.Placement, wantPl)
					gotJSON, err := json.Marshal(gotGeo)
					if err != nil {
						t.Fatal(err)
					}
					if string(gotJSON) != string(wantJSON) {
						t.Fatalf("%s: geolocation differs from the three-step definition", what)
					}
				}
			}
		}
	}
}

// TestLocateCrowdScansOncePerPass counts kernel calls: on the bot crowd
// the step scans each kept user once per polish pass, against that pass's
// generic profile, and placement adds no scan of its own.
func TestLocateCrowdScansOncePerPass(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy synthesis in -short mode")
	}
	crowds, err := loadLocateCrowds()
	if err != nil {
		t.Fatal(err)
	}
	c := crowds[0]
	// The passes, written out: every kept user is scanned, the flat ones
	// go, and the generic profile is rebuilt from the rest.
	kept := make(map[string]profile.Profile, len(c.profiles))
	for id, p := range c.profiles {
		kept[id] = p
	}
	generic, want, passes := c.generic, 0, 0
	for passes < 10 {
		passes++
		ids := profile.SortedUserIDs(kept)
		want += len(ids)
		scans, err := profile.ScanUsers(kept, ids, generic, profile.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var aligned []profile.Profile
		for i, id := range ids {
			if scans[i].Flat {
				delete(kept, id)
			} else {
				aligned = append(aligned, kept[id].ToLocal(profile.OffsetOf(scans[i].Zone)))
			}
		}
		if len(aligned) == len(ids) {
			break
		}
		if generic, err = profile.Aggregate(aligned); err != nil {
			t.Fatal(err)
		}
	}
	if passes < 2 {
		t.Fatalf("premise broken: the bot crowd needs %d polish pass(es), want >= 2", passes)
	}
	reg := obs.NewRegistry()
	polished, _, err := LocateCrowd(c.profiles, c.generic, LocateOptions{Obs: &obs.Observer{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	if polished.Iterations != passes || len(polished.Kept) != len(kept) {
		t.Fatalf("step ran %d passes keeping %d users, definition %d passes keeping %d",
			polished.Iterations, len(polished.Kept), passes, len(kept))
	}
	if got := reg.Counter(profile.ZoneScansCounter).Load(); got != int64(want) {
		t.Fatalf("%d zone scans, want %d (the users of each polish pass)", got, want)
	}
}

// TestLocateCrowdCache checks the per-user scan cache: each cached user
// saves exactly one kernel call, entries for users outside the crowd are
// ignored, and the result is bit-identical to the uncached step's — with
// a warm cache, and with one missing the users whose profile changed.
func TestLocateCrowdCache(t *testing.T) {
	t.Parallel()
	profiles, generic := randomProfiles(3, 60)
	dirty := []string{"user-005", "user-017", "user-041"}
	dirtied := make(map[string]profile.Profile, len(profiles))
	for id, p := range profiles {
		dirtied[id] = p
	}
	for i, id := range dirty {
		dirtied[id] = profiles[id].Shift(5 + i)
	}
	type located struct {
		polish *profile.PolishResult
		geo    *Geolocation
	}
	run := func(crowd map[string]profile.Profile, opts LocateOptions) (located, int64) {
		t.Helper()
		reg := obs.NewRegistry()
		opts.Obs = &obs.Observer{Metrics: reg}
		polished, geo, err := LocateCrowd(crowd, generic, opts)
		if err != nil {
			t.Fatal(err)
		}
		return located{polished, geo}, reg.Counter(profile.ZoneScansCounter).Load()
	}
	for _, skipPolish := range []bool{false, true} {
		cold, _ := run(profiles, LocateOptions{SkipPolish: skipPolish, Margins: true})
		warm := make(map[string]profile.ZoneScan, len(profiles))
		for i, id := range cold.polish.IDs {
			warm[id] = cold.polish.Scans[i]
		}
		stale := make(map[string]profile.ZoneScan, len(warm))
		for id, sc := range warm {
			stale[id] = sc
		}
		for _, id := range dirty {
			delete(stale, id)
		}
		stale["user-gone"] = profile.ZoneScan{Zone: 7}
		for _, tc := range []struct {
			name  string
			crowd map[string]profile.Profile
			cache map[string]profile.ZoneScan
			hits  int
		}{
			{"warm", profiles, warm, len(profiles)},
			{"dirty", dirtied, stale, len(profiles) - len(dirty)},
		} {
			what := fmt.Sprintf("skipPolish=%v %s", skipPolish, tc.name)
			want, uncached := run(tc.crowd, LocateOptions{SkipPolish: skipPolish, Margins: true})
			got, cached := run(tc.crowd, LocateOptions{SkipPolish: skipPolish, Margins: true, Cache: tc.cache})
			if cached != uncached-int64(tc.hits) {
				t.Errorf("%s: %d zone scans, want %d uncached minus %d hits", what, cached, uncached, tc.hits)
			}
			placementsBitEqual(t, got.geo.Placement, want.geo.Placement)
			marginsBitEqual(t, got.geo.Placement, want.geo.Placement)
			if !reflect.DeepEqual(got.polish, want.polish) {
				t.Errorf("%s: polish result differs from the uncached step", what)
			}
		}
	}
	if _, _, err := LocateCrowd(nil, generic, LocateOptions{}); err != ErrNoProfiles {
		t.Fatalf("empty crowd: got %v, want ErrNoProfiles", err)
	}
}
