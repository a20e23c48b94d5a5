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

// TestLocateCrowdScansOncePerPass counts the EMD work of each polish
// pass on the bot crowd: pass 1 scans every user in full, a later pass
// checks each kept user for flatness one rotation at a time, from its
// latest scanned zone up to the first zone within its uniform distance,
// and the kept users are scanned in full again only when a pass removed
// someone and the generic profile is rebuilt from their zones. Placement
// adds no scan of its own.
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
	// The passes, written out.
	uniform := profile.Uniform()
	ids := profile.SortedUserIDs(c.profiles)
	scans, err := profile.ScanUsers(c.profiles, ids, c.generic, profile.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zone := make(map[string]int, len(ids))
	flat := make(map[string]bool, len(ids))
	for i, id := range ids {
		zone[id], flat[id] = scans[i].Zone, scans[i].Flat
	}
	generic, passes := c.generic, 1
	wantScans, wantChecks, rescans := len(ids), 0, 0
	for {
		var kept []string
		for _, id := range ids {
			if !flat[id] {
				kept = append(kept, id)
			}
		}
		if len(kept) == len(ids) || len(kept) == 0 || passes == 10 {
			break
		}
		if passes > 1 {
			sc, err := profile.ScanUsers(c.profiles, kept, generic, profile.ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range kept {
				zone[id] = sc[i].Zone
			}
			wantScans += len(kept)
			rescans++
		}
		aligned := make([]profile.Profile, len(kept))
		for i, id := range kept {
			aligned[i] = c.profiles[id].ToLocal(profile.OffsetOf(zone[id]))
		}
		if generic, err = profile.Aggregate(aligned); err != nil {
			t.Fatal(err)
		}
		ids = kept
		passes++
		zones := profile.ZoneProfiles(generic)
		for _, id := range ids {
			p := c.profiles[id]
			dUniform, err := p.EMD(uniform)
			if err != nil {
				t.Fatal(err)
			}
			flat[id] = true
			for k := 0; k < len(zones) && flat[id]; k++ {
				d, err := p.EMD(zones[(zone[id]+k)%len(zones)])
				if err != nil {
					t.Fatal(err)
				}
				wantChecks++
				flat[id] = !(d <= dUniform)
			}
		}
	}
	if rescans == 0 {
		t.Fatalf("premise broken: the bot crowd's %d polish passes never rescan the kept users", passes)
	}
	reg := obs.NewRegistry()
	polished, _, err := LocateCrowd(c.profiles, c.generic, LocateOptions{Obs: &obs.Observer{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	if polished.Iterations != passes || len(polished.Kept) != len(ids) {
		t.Fatalf("step ran %d passes keeping %d users, definition %d passes keeping %d",
			polished.Iterations, len(polished.Kept), passes, len(ids))
	}
	if got := reg.Counter(profile.ZoneScansCounter).Load(); got != int64(wantScans) {
		t.Errorf("%d zone scans, want %d (every user, then the kept users before each later rebuild)", got, wantScans)
	}
	if got := reg.Counter(profile.FlatChecksCounter).Load(); got != int64(wantChecks) {
		t.Errorf("%d flat checks, want %d", got, wantChecks)
	}
	t.Logf("%d passes: %d zone scans, %d flat checks", passes, wantScans, wantChecks)
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

// TestLocateCrowdRelabelInvariant renames every user with an
// order-reversing bijection and checks that the step's outcome maps
// through it: the same users are removed as flat over the same passes,
// and every kept user keeps its zone and margin bit for bit, so the
// placement histogram and counts are unchanged.
//
// Pass 1 reads each profile alone, so its verdicts, zones and margins
// cannot move. Three things may, because they follow sorted-ID order:
// the order of Removed within a pass; the rebuilt generic profile, whose
// float sums Aggregate takes over the aligned profiles in sorted-ID order,
// so a later pass's verdict could flip for a user on the knife edge; and
// the mixture's low bits, because EM sums Placement.Samples in sorted-ID
// order. So of the report bytes, the mixture parameters and the fit
// metrics derived from them (AvgDistance, StdDistance, BIC) may move; the
// check allows them 1e-9.
func TestLocateCrowdRelabelInvariant(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy synthesis in -short mode")
	}
	crowds, err := loadLocateCrowds()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range crowds {
		ids := profile.SortedUserIDs(c.profiles)
		rename := make(map[string]string, len(ids))
		renamed := make(map[string]profile.Profile, len(ids))
		for i, id := range ids {
			rename[id] = fmt.Sprintf("r%06d", len(ids)-1-i)
			renamed[rename[id]] = c.profiles[id]
		}
		opts := LocateOptions{Margins: true}
		want, wantGeo, err := LocateCrowd(c.profiles, c.generic, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, gotGeo, err := LocateCrowd(renamed, c.generic, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations {
			t.Errorf("%s: %d passes, want %d", c.name, got.Iterations, want.Iterations)
		}
		removed := make(map[string]bool, len(want.Removed))
		for _, id := range want.Removed {
			removed[rename[id]] = true
		}
		if len(got.Removed) != len(removed) {
			t.Errorf("%s: %d users removed, want %d", c.name, len(got.Removed), len(removed))
		}
		for _, id := range got.Removed {
			if !removed[id] {
				t.Errorf("%s: %s removed, but its original was kept", c.name, id)
			}
		}
		if len(got.Kept) != len(want.Kept) {
			t.Errorf("%s: %d users kept, want %d", c.name, len(got.Kept), len(want.Kept))
		}
		wantPl, gotPl := wantGeo.Placement, gotGeo.Placement
		for id := range want.Kept {
			r := rename[id]
			if _, ok := got.Kept[r]; !ok {
				t.Errorf("%s: %s (was %s) not kept", c.name, r, id)
				continue
			}
			if gotPl.Assignments[r] != wantPl.Assignments[id] ||
				math.Float64bits(gotPl.Margins[r]) != math.Float64bits(wantPl.Margins[id]) {
				t.Errorf("%s: %s placed at %v margin %v, its original %s at %v margin %v", c.name,
					r, gotPl.Assignments[r], gotPl.Margins[r], id, wantPl.Assignments[id], wantPl.Margins[id])
			}
		}
		if !reflect.DeepEqual(gotPl.Counts, wantPl.Counts) || !reflect.DeepEqual(gotPl.Histogram, wantPl.Histogram) {
			t.Errorf("%s: placement histogram moved", c.name)
		}
		if len(gotGeo.Mixture) != len(wantGeo.Mixture) {
			t.Fatalf("%s: %d mixture components, want %d", c.name, len(gotGeo.Mixture), len(wantGeo.Mixture))
		}
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
		for k, g := range gotGeo.Mixture {
			w := wantGeo.Mixture[k]
			if !near(g.Weight, w.Weight) || !near(g.Mean, w.Mean) || !near(g.Sigma, w.Sigma) {
				t.Errorf("%s: component %d = %+v, want %+v", c.name, k, g, w)
			}
		}
		if !near(gotGeo.AvgDistance, wantGeo.AvgDistance) || !near(gotGeo.StdDistance, wantGeo.StdDistance) || !near(gotGeo.BIC, wantGeo.BIC) {
			t.Errorf("%s: fit metrics %v/%v/%v, want %v/%v/%v", c.name,
				gotGeo.AvgDistance, gotGeo.StdDistance, gotGeo.BIC, wantGeo.AvgDistance, wantGeo.StdDistance, wantGeo.BIC)
		}
	}
}
