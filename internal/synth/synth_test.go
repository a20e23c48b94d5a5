package synth

import (
	"math"
	"testing"
	"time"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

func TestDefaultRhythmShape(t *testing.T) {
	t.Parallel()
	r := DefaultRhythm()
	// Night trough between 1h and 7h (§IV): every night hour below every
	// daytime hour.
	for night := 1; night <= 6; night++ {
		for day := 9; day <= 22; day++ {
			if r[night] >= r[day] {
				t.Errorf("rhythm[%d]=%g not below rhythm[%d]=%g", night, r[night], day, r[day])
			}
		}
	}
	// Peak at 21h local.
	for h := range r {
		if r[h] > r[21] {
			t.Errorf("peak at %d (%g), want 21", h, r[h])
		}
	}
	// Lunch dip: 13h below late morning and mid-afternoon.
	if r[13] >= r[11] || r[13] >= r[15] {
		t.Errorf("no lunch dip: r[11]=%g r[13]=%g r[15]=%g", r[11], r[13], r[15])
	}
	// Lowest activity around 4am-5am (§IV-A).
	if rMin := minIndex(r); rMin != 4 {
		t.Errorf("minimum at %d, want 4", rMin)
	}
}

func minIndex(r Rhythm) int {
	best := 0
	for i := range r {
		if r[i] < r[best] {
			best = i
		}
	}
	return best
}

func TestRhythmShifted(t *testing.T) {
	t.Parallel()
	r := DefaultRhythm()
	s := r.Shifted(3)
	// Peak moves from 21 to 0.
	if got := maxIndex(s); got != 0 {
		t.Errorf("Shifted(3) peak at %d, want 0", got)
	}
	// Integer shift is exact.
	for h := 0; h < 24; h++ {
		if math.Abs(s[(h+3)%24]-r[h]) > 1e-12 {
			t.Errorf("Shifted(3)[%d] = %g, want %g", (h+3)%24, s[(h+3)%24], r[h])
		}
	}
	// Fractional shift interpolates between neighbours.
	half := r.Shifted(0.5)
	for h := 0; h < 24; h++ {
		lo := r[(h-1+24)%24]
		hi := r[h]
		want := (lo + hi) / 2
		if math.Abs(half[h]-want) > 1e-12 {
			t.Errorf("Shifted(0.5)[%d] = %g, want %g", h, half[h], want)
		}
	}
	// Zero shift is identity.
	if r.Shifted(0) != r {
		t.Error("Shifted(0) not identity")
	}
}

func maxIndex(r Rhythm) int {
	best := 0
	for i := range r {
		if r[i] > r[best] {
			best = i
		}
	}
	return best
}

func TestFlatRhythm(t *testing.T) {
	t.Parallel()
	f := FlatRhythm()
	for h := 1; h < 24; h++ {
		if f[h] != f[0] {
			t.Fatal("flat rhythm is not flat")
		}
	}
	if got := f.Scale(2).Total(); math.Abs(got-2*f.Total()) > 1e-12 {
		t.Errorf("Scale/Total: %g", got)
	}
}

func TestGenerateCrowdDeterminism(t *testing.T) {
	t.Parallel()
	cfg := CrowdConfig{
		Name:   "det",
		Groups: []Group{{Region: mustRegion("de"), Users: 5, PostsPerUser: 50}},
	}
	a, err := GenerateCrowd(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCrowd(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumPosts() != b.NumPosts() {
		t.Fatalf("same seed, different post counts: %d vs %d", a.NumPosts(), b.NumPosts())
	}
	for i := 0; i < a.NumPosts(); i++ {
		if a.Post(i) != b.Post(i) {
			t.Fatalf("post %d differs", i)
		}
	}
	c, err := GenerateCrowd(43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := a.NumPosts() == c.NumPosts()
	if same {
		for i := 0; i < a.NumPosts(); i++ {
			if a.Post(i) != c.Post(i) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateCrowdVolume(t *testing.T) {
	t.Parallel()
	ds, err := GenerateCrowd(1, CrowdConfig{
		Name:   "vol",
		Groups: []Group{{Region: mustRegion("jp"), Users: 40, PostsPerUser: 80}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(ds.NumPosts()) / 40
	if mean < 50 || mean > 120 {
		t.Errorf("mean posts per user = %g, want ~80", mean)
	}
	if got := len(ds.Users()); got != 40 {
		t.Errorf("generated %d users, want 40", got)
	}
	for u, label := range ds.GroundTruth {
		if label != "jp" {
			t.Errorf("user %s labelled %q", u, label)
		}
	}
}

func TestGenerateCrowdErrors(t *testing.T) {
	t.Parallel()
	if _, err := GenerateCrowd(1, CrowdConfig{}); err == nil {
		t.Error("no groups should fail")
	}
	if _, err := GenerateCrowd(1, CrowdConfig{
		Groups: []Group{{Region: mustRegion("de"), Users: 0}},
	}); err == nil {
		t.Error("zero users should fail")
	}
	if _, err := GenerateCrowd(1, CrowdConfig{
		Groups: []Group{{Region: mustRegion("de"), Users: 1}},
		Start:  time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC),
		End:    time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
	}); err == nil {
		t.Error("inverted window should fail")
	}
}

func TestGeneratedProfileMatchesRegion(t *testing.T) {
	t.Parallel()
	// A German crowd's UTC-frame population profile should peak in the
	// evening German local hours (19-22 local => 17-21 UTC depending on
	// DST) and trough during the German night.
	ds, err := GenerateCrowd(7, CrowdConfig{
		Name:   "de-check",
		Groups: []Group{{Region: mustRegion("de"), Users: 60, PostsPerUser: 120}},
	})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := profile.BuildUserProfiles(ds, profile.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var list []profile.Profile
	for _, id := range profile.SortedUserIDs(profiles) {
		list = append(list, profiles[id])
	}
	pop, err := profile.Aggregate(list)
	if err != nil {
		t.Fatal(err)
	}
	peak := argmaxProfile(pop)
	if peak < 17 && peak > 21 {
		t.Errorf("German UTC-frame peak at %d, want 17..21", peak)
	}
	// Night trough: local 4am is 2-3 UTC.
	if pop[2] > pop[19]/3 {
		t.Errorf("night activity too high: pop[2]=%g pop[19]=%g", pop[2], pop[19])
	}
}

func argmaxProfile(p profile.Profile) int {
	best := 0
	for i := range p {
		if p[i] > p[best] {
			best = i
		}
	}
	return best
}

func TestBotProfileIsFlat(t *testing.T) {
	t.Parallel()
	ds, err := GenerateCrowd(11, CrowdConfig{
		Name:   "bots",
		Groups: []Group{{Region: mustRegion("de"), Users: 10, PostsPerUser: 200, Kind: KindBot}},
	})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := profile.BuildUserProfiles(ds, profile.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	uniform := profile.Uniform()
	for id, p := range profiles {
		d, err := p.EMD(uniform)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1.5 {
			t.Errorf("bot %s EMD from uniform = %g, want close to 0", id, d)
		}
	}
}

func TestShiftWorkerDisplaced(t *testing.T) {
	t.Parallel()
	regular, err := GenerateCrowd(12, CrowdConfig{
		Name:   "reg",
		Groups: []Group{{Region: mustRegion("jp"), Users: 30, PostsPerUser: 150}},
	})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := GenerateCrowd(12, CrowdConfig{
		Name:   "shift",
		Groups: []Group{{Region: mustRegion("jp"), Users: 30, PostsPerUser: 150, Kind: KindShiftWorker}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := mustPopulation(t, regular)
	ps := mustPopulation(t, shifted)
	dr := argmaxProfile(pr)
	dsPeak := argmaxProfile(ps)
	dist := dr - dsPeak
	if dist < 0 {
		dist = -dist
	}
	if dist > 12 {
		dist = 24 - dist
	}
	if dist < 6 {
		t.Errorf("shift-worker peak only %dh from regular peak", dist)
	}
}

func mustPopulation(t *testing.T, ds *trace.Dataset) profile.Profile {
	t.Helper()
	profiles, err := profile.BuildUserProfiles(ds, profile.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var list []profile.Profile
	for _, id := range profile.SortedUserIDs(profiles) {
		list = append(list, profiles[id])
	}
	pop, err := profile.Aggregate(list)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestTwitterDatasetScaled(t *testing.T) {
	t.Parallel()
	ds, err := TwitterDataset(1, TwitterOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, label := range ds.GroundTruth {
		counts[label]++
	}
	if len(counts) != 14 {
		t.Fatalf("got %d regions, want 14", len(counts))
	}
	// Scaled counts: Brazil 3763/100 = 37, Finland 73/100 -> floor 0 -> 1.
	if counts["br"] != 37 {
		t.Errorf("Brazil users = %d, want 37", counts["br"])
	}
	if counts["fi"] != 1 {
		t.Errorf("Finland users = %d, want 1 (floored)", counts["fi"])
	}
}

func TestTableIUserCount(t *testing.T) {
	t.Parallel()
	n, err := TableIUserCount("de")
	if err != nil {
		t.Fatal(err)
	}
	if n != 470 {
		t.Errorf("Germany = %d, want 470", n)
	}
	if _, err := TableIUserCount("xx"); err == nil {
		t.Error("unknown code should fail")
	}
	var total int
	for code := range tableIUserCounts {
		n, err := TableIUserCount(code)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 22576 {
		t.Errorf("Table I total = %d, want 22576", total)
	}
}

func TestForumSpecs(t *testing.T) {
	t.Parallel()
	specs := ForumSpecs()
	if len(specs) != 5 {
		t.Fatalf("%d forum specs, want 5", len(specs))
	}
	var users, posts int
	for _, s := range specs {
		users += s.Users
		posts += s.Posts
		var mixTotal float64
		for _, share := range s.Mix {
			mixTotal += share
		}
		if math.Abs(mixTotal-1) > 1e-9 {
			t.Errorf("%s mix sums to %g", s.Name, mixTotal)
		}
		for code := range s.Mix {
			if _, err := tz.ByCode(code); err != nil {
				t.Errorf("%s: mix region %q unknown: %v", s.Name, code, err)
			}
		}
	}
	// §VIII: "we analyzed 1,378 anonymous users ... 151,770 posts".
	if users != 1378 {
		t.Errorf("total forum users = %d, want 1378", users)
	}
	if posts != 151770 {
		t.Errorf("total forum posts = %d, want 151770", posts)
	}
	if _, err := ForumSpecByName("CRD Club"); err != nil {
		t.Errorf("ForumSpecByName: %v", err)
	}
	if _, err := ForumSpecByName("nope"); err == nil {
		t.Error("unknown forum should fail")
	}
}

func TestForumCrowdCensus(t *testing.T) {
	t.Parallel()
	spec, err := ForumSpecByName("Italian DarkNet Community")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ForumCrowd(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Users()); got != spec.Users {
		t.Errorf("IDC users = %d, want %d", got, spec.Users)
	}
	ratio := float64(ds.NumPosts()) / float64(spec.Posts)
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("IDC posts = %d, want within 60%% of %d", ds.NumPosts(), spec.Posts)
	}
	bad := ForumSpec{Name: "bad", Users: 0, Posts: 0}
	if _, err := ForumCrowd(1, bad); err == nil {
		t.Error("invalid census should fail")
	}
}

func TestRezonedRegion(t *testing.T) {
	t.Parallel()
	my := mustRegion("my")
	r := RezonedRegion(my, -7)
	if r.StandardOffset != -7 {
		t.Errorf("offset = %d, want -7", r.StandardOffset)
	}
	if r.DST.Observed {
		t.Error("rezoned region should not observe DST")
	}
	if r.Code == my.Code {
		t.Error("rezoned region should have a distinct code")
	}
	// Original untouched.
	if my.StandardOffset != 8 {
		t.Error("RezonedRegion mutated its input")
	}
}

func TestFig6Datasets(t *testing.T) {
	t.Parallel()
	a, err := Fig6aDataset(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	labels := make(map[string]bool)
	for _, l := range a.GroundTruth {
		labels[l] = true
	}
	if len(labels) != 3 {
		t.Errorf("Fig6a has %d labels, want 3: %v", len(labels), labels)
	}
	b, err := Fig6bDataset(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.Users()); got != 30 {
		t.Errorf("Fig6b users = %d, want 30", got)
	}
	if _, err := Fig6aDataset(1, 0); err == nil {
		t.Error("zero users should fail")
	}
	if _, err := Fig6bDataset(1, -1); err == nil {
		t.Error("negative users should fail")
	}
}

func TestUserKindString(t *testing.T) {
	t.Parallel()
	if KindRegular.String() != "regular" || KindBot.String() != "bot" || KindShiftWorker.String() != "shift-worker" {
		t.Error("kind strings wrong")
	}
	if UserKind(99).String() != "UserKind(99)" {
		t.Error("unknown kind string wrong")
	}
}

func TestDeliberateShift(t *testing.T) {
	t.Parallel()
	// A coordinated crowd posting 6 hours later must show a population
	// profile displaced ~6h from an honest crowd of the same region.
	honest, err := GenerateCrowd(21, CrowdConfig{
		Name:   "honest",
		Groups: []Group{{Region: mustRegion("jp"), Users: 40, PostsPerUser: 150}},
	})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := GenerateCrowd(21, CrowdConfig{
		Name:   "shifted",
		Groups: []Group{{Region: mustRegion("jp"), Users: 40, PostsPerUser: 150, DeliberateShift: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := mustPopulation(t, honest)
	ps := mustPopulation(t, shifted)
	dh := argmaxProfile(ph)
	dsPeak := argmaxProfile(ps)
	diff := (dsPeak - dh + 24) % 24
	if diff < 5 || diff > 7 {
		t.Errorf("peak displaced by %dh, want ~6 (honest %d, shifted %d)", diff, dh, dsPeak)
	}
}

func TestWeekendEffect(t *testing.T) {
	t.Parallel()
	// With WeekendEffect, weekend activity per day should exceed weekday
	// activity per day, and the weekend pattern should run later.
	ds, err := GenerateCrowd(31, CrowdConfig{
		Name:          "weekend",
		Groups:        []Group{{Region: mustRegion("jp"), Users: 40, PostsPerUser: 300}},
		WeekendEffect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	jp := mustRegion("jp")
	var weekendPosts, weekdayPosts int
	for i := 0; i < ds.NumPosts(); i++ {
		p := ds.Post(i)
		switch jp.LocalTime(p.Time).Weekday() {
		case time.Saturday, time.Sunday:
			weekendPosts++
		default:
			weekdayPosts++
		}
	}
	perWeekendDay := float64(weekendPosts) / 2
	perWeekday := float64(weekdayPosts) / 5
	if perWeekendDay <= perWeekday {
		t.Errorf("weekend/day %f not above weekday/day %f", perWeekendDay, perWeekday)
	}
	// Without the flag the ratio is ~1.
	plain, err := GenerateCrowd(31, CrowdConfig{
		Name:   "plain",
		Groups: []Group{{Region: jp, Users: 40, PostsPerUser: 300}},
	})
	if err != nil {
		t.Fatal(err)
	}
	weekendPosts, weekdayPosts = 0, 0
	for i := 0; i < plain.NumPosts(); i++ {
		p := plain.Post(i)
		switch jp.LocalTime(p.Time).Weekday() {
		case time.Saturday, time.Sunday:
			weekendPosts++
		default:
			weekdayPosts++
		}
	}
	ratio := (float64(weekendPosts) / 2) / (float64(weekdayPosts) / 5)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("plain weekend/weekday ratio = %f, want ~1", ratio)
	}
}
