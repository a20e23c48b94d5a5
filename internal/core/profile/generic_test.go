package profile

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

func buildTestTwitter(t *testing.T, seed int64, scale int) *trace.Dataset {
	t.Helper()
	ds, err := synth.TwitterDataset(seed, synth.TwitterOptions{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildGenericBasics(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy synthesis in -short mode")
	}
	ds := buildTestTwitter(t, 501, 60)
	res, err := BuildGeneric(ds, GenericOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Generic.Sum(), 1, 1e-9) {
		t.Errorf("generic profile sums to %g", res.Generic.Sum())
	}
	if len(res.PerRegion) != 14 {
		t.Errorf("%d region profiles, want 14", len(res.PerRegion))
	}
	// The generic profile is in the local frame: evening peak in 17..22,
	// night trough in 1..7 (§III).
	peak := argmaxProfile(res.Generic)
	if peak < 17 || peak > 22 {
		t.Errorf("generic peak at %d, want 17..22", peak)
	}
	var nightMass, eveningMass float64
	for h := 1; h <= 6; h++ {
		nightMass += res.Generic[h]
	}
	for h := 17; h <= 22; h++ {
		eveningMass += res.Generic[h]
	}
	if nightMass > eveningMass/3 {
		t.Errorf("night mass %g vs evening %g: trough missing", nightMass, eveningMass)
	}
}

func argmaxProfile(p Profile) int {
	best := 0
	for i := range p {
		if p[i] > p[best] {
			best = i
		}
	}
	return best
}

func TestCrossCountryPearson(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy synthesis in -short mode")
	}
	// The paper: after shifting to a common time zone, any two country
	// profiles correlate at r ~ 0.9 on average.
	ds := buildTestTwitter(t, 502, 30)
	res, err := BuildGeneric(ds, GenericOptions{})
	if err != nil {
		t.Fatal(err)
	}
	codes := []string{"br", "us-ca", "fr", "de", "it", "jp", "my", "uk", "tr"}
	var sum float64
	var n int
	for i := 0; i < len(codes); i++ {
		for j := i + 1; j < len(codes); j++ {
			a, okA := res.PerRegion[codes[i]]
			b, okB := res.PerRegion[codes[j]]
			if !okA || !okB {
				t.Fatalf("missing region profile for %s or %s", codes[i], codes[j])
			}
			r, err := a.Pearson(b)
			if err != nil {
				t.Fatal(err)
			}
			sum += r
			n++
		}
	}
	avg := sum / float64(n)
	if avg < 0.85 {
		t.Errorf("average cross-country Pearson = %.3f, want ~0.9", avg)
	}
}

func TestGenericMatchesShiftedRegions(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy synthesis in -short mode")
	}
	// Fig. 2: the generic profile equals each region's local profile up to
	// noise — Pearson close to 1 after alignment (both are local-frame).
	ds := buildTestTwitter(t, 503, 40)
	res, err := BuildGeneric(ds, GenericOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []string{"de", "jp", "br"} {
		rp, ok := res.PerRegion[code]
		if !ok {
			t.Fatalf("missing %s", code)
		}
		r, err := rp.Pearson(res.Generic)
		if err != nil {
			t.Fatal(err)
		}
		if r < 0.9 {
			t.Errorf("%s vs generic Pearson = %.3f, want > 0.9", code, r)
		}
	}
}

func TestBuildGenericActiveUserCounts(t *testing.T) {
	t.Parallel()
	ds := buildTestTwitter(t, 504, 100)
	res, err := BuildGeneric(ds, GenericOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Scale 100: Brazil 37 generated; nearly all should survive the
	// 30-post threshold at the default 90 posts/user volume.
	if res.ActiveUsers["br"] < 30 {
		t.Errorf("Brazilian active users = %d, want ~37", res.ActiveUsers["br"])
	}
}

func TestBuildGenericErrors(t *testing.T) {
	t.Parallel()
	if _, err := BuildGeneric(&trace.Dataset{Name: "no-labels"}, GenericOptions{}); err == nil {
		t.Error("dataset without ground truth should fail")
	}
	bad := &trace.Dataset{
		Name:        "bad-code",
		GroundTruth: map[string]string{"u": "not-a-region"},
	}
	if _, err := BuildGeneric(bad, GenericOptions{}); err == nil {
		t.Error("unknown region code should fail")
	}
}

func TestPolishRemovesBots(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy synthesis in -short mode")
	}
	de := mustRegion(t, "de")
	ds, err := synth.GenerateCrowd(505, synth.CrowdConfig{
		Name: "polish",
		Groups: []synth.Group{
			{Region: de, Users: 40, PostsPerUser: 120},
			{Region: de, Users: 8, PostsPerUser: 240, Kind: synth.KindBot, IDPrefix: "bot"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := BuildUserProfiles(ds, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Reference generic from a clean dataset.
	clean := buildTestTwitter(t, 506, 60)
	res, err := BuildGeneric(clean, GenericOptions{})
	if err != nil {
		t.Fatal(err)
	}
	polished, err := Polish(profiles, res.Generic, true)
	if err != nil {
		t.Fatal(err)
	}
	removedBots := 0
	removedHumans := 0
	for _, id := range polished.Removed {
		if len(id) >= 3 && id[:3] == "bot" {
			removedBots++
		} else {
			removedHumans++
		}
	}
	if removedBots < 6 {
		t.Errorf("polish removed %d/8 bots, want >= 6 (removed: %v)", removedBots, polished.Removed)
	}
	if removedHumans > 4 {
		t.Errorf("polish removed %d regular users", removedHumans)
	}
	if polished.Iterations < 1 {
		t.Error("no polish iterations recorded")
	}
	if len(polished.Kept)+len(polished.Removed) != len(profiles) {
		t.Error("kept + removed != total")
	}
}

func TestPolishKeepsCleanCrowd(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy synthesis in -short mode")
	}
	de := mustRegion(t, "de")
	ds, err := synth.GenerateCrowd(507, synth.CrowdConfig{
		Name:   "clean",
		Groups: []synth.Group{{Region: de, Users: 30, PostsPerUser: 120}},
	})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := BuildUserProfiles(ds, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean := buildTestTwitter(t, 508, 60)
	res, err := BuildGeneric(clean, GenericOptions{})
	if err != nil {
		t.Fatal(err)
	}
	polished, err := Polish(profiles, res.Generic, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(polished.Removed) > len(profiles)/10 {
		t.Errorf("polish removed %d of %d clean users", len(polished.Removed), len(profiles))
	}
}

func mustRegion(t *testing.T, code string) tz.Region {
	t.Helper()
	r, err := tz.ByCode(code)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestShiftFractional(t *testing.T) {
	t.Parallel()
	var p Profile
	p[10] = 1
	// Integer fractional shift equals Shift.
	if p.ShiftFractional(3) != p.Shift(3) {
		t.Error("ShiftFractional(3) != Shift(3)")
	}
	if p.ShiftFractional(-2) != p.Shift(-2) {
		t.Error("ShiftFractional(-2) != Shift(-2)")
	}
	// Half shift splits mass between bins 10 and 11.
	half := p.ShiftFractional(0.5)
	if !almostEqual(half[10], 0.5, 1e-12) || !almostEqual(half[11], 0.5, 1e-12) {
		t.Errorf("ShiftFractional(0.5) = %v", half)
	}
	// Mass conservation.
	if !almostEqual(p.ShiftFractional(1.37).Sum(), 1, 1e-12) {
		t.Error("fractional shift lost mass")
	}
	// Wrap across the seam.
	var q Profile
	q[23] = 1
	w := q.ShiftFractional(0.5)
	if !almostEqual(w[23], 0.5, 1e-12) || !almostEqual(w[0], 0.5, 1e-12) {
		t.Errorf("seam shift = %v", w)
	}
	// Negative fractional.
	neg := p.ShiftFractional(-0.25)
	if !almostEqual(neg[9], 0.25, 1e-12) || !almostEqual(neg[10], 0.75, 1e-12) {
		t.Errorf("ShiftFractional(-0.25): bin9=%g bin10=%g", neg[9], neg[10])
	}
}

// TestBuildGenericParallelFreshDataset runs the parallel region build on a
// freshly built dataset. Every region worker filters the one shared
// dataset, so under -race this catches any write to its store from inside
// the workers.
func TestBuildGenericParallelFreshDataset(t *testing.T) {
	t.Parallel()
	fresh := func() *trace.Dataset {
		gt := map[string]string{}
		var posts []trace.Post
		base := time.Date(2017, time.March, 6, 0, 0, 0, 0, time.UTC)
		for r, code := range []string{"de", "jp", "br", "us-ca"} {
			for u := 0; u < 4; u++ {
				id := fmt.Sprintf("%s-%d", code, u)
				gt[id] = code
				for i := 0; i < 40; i++ {
					at := base.Add(time.Duration(i*25+r*5+u) * time.Hour)
					posts = append(posts, trace.Post{UserID: id, Time: at})
				}
			}
		}
		ds := trace.NewDataset("fresh", posts)
		ds.GroundTruth = gt
		return ds
	}
	want, err := BuildGeneric(fresh(), GenericOptions{MinPosts: 10, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildGeneric(fresh(), GenericOptions{MinPosts: 10, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PerRegion) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel build differs from sequential: %d regions", len(got.PerRegion))
	}
}
