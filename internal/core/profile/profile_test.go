package profile

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

func postAt(day, hour int) trace.Post {
	return trace.Post{
		UserID: "u",
		Time:   time.Date(2017, time.June, 1, hour, 30, 0, 0, time.UTC).AddDate(0, 0, day),
	}
}

func TestFromPostsEquationOne(t *testing.T) {
	t.Parallel()
	// 2 days: day 0 active at hours 9 and 21; day 1 active at hour 9.
	// Multiple posts within the same (day, hour) cell count once.
	posts := []trace.Post{
		postAt(0, 9), postAt(0, 9), // same cell, counts once
		postAt(0, 21),
		postAt(1, 9),
	}
	p, err := FromPosts(posts, UTCHours())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p[9], 2.0/3, 1e-12) {
		t.Errorf("P[9] = %g, want 2/3", p[9])
	}
	if !almostEqual(p[21], 1.0/3, 1e-12) {
		t.Errorf("P[21] = %g, want 1/3", p[21])
	}
	if !almostEqual(p.Sum(), 1, 1e-12) {
		t.Errorf("profile sums to %g", p.Sum())
	}
}

func TestFromPostsEmpty(t *testing.T) {
	t.Parallel()
	if _, err := FromPosts(nil, nil); err == nil {
		t.Error("empty posts should fail")
	}
}

func TestFromPostsLocalFrame(t *testing.T) {
	t.Parallel()
	jp, err := tz.ByCode("jp")
	if err != nil {
		t.Fatal(err)
	}
	// 20:00 UTC is 05:00 in Japan (UTC+9).
	posts := []trace.Post{{UserID: "u", Time: time.Date(2017, time.June, 1, 20, 0, 0, 0, time.UTC)}}
	p, err := FromPosts(posts, LocalHours(jp))
	if err != nil {
		t.Fatal(err)
	}
	if p[5] != 1 {
		t.Errorf("local-frame bucket: got %v, want all mass at hour 5", p)
	}
}

func TestFromPostsLocalFrameDST(t *testing.T) {
	t.Parallel()
	de, err := tz.ByCode("de")
	if err != nil {
		t.Fatal(err)
	}
	// In June Germany is UTC+2: 20:00 UTC -> 22:00 local.
	june := trace.Post{UserID: "u", Time: time.Date(2017, time.June, 1, 20, 0, 0, 0, time.UTC)}
	// In January Germany is UTC+1: 20:00 UTC -> 21:00 local.
	january := trace.Post{UserID: "u", Time: time.Date(2017, time.January, 10, 20, 0, 0, 0, time.UTC)}
	p, err := FromPosts([]trace.Post{june, january}, LocalHours(de))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p[22], 0.5, 1e-12) || !almostEqual(p[21], 0.5, 1e-12) {
		t.Errorf("DST-aware bucketing wrong: %v", p)
	}
}

func TestShiftRoundTrip(t *testing.T) {
	t.Parallel()
	var p Profile
	p[21] = 1
	shifted := p.Shift(3)
	if shifted[0] != 1 {
		t.Errorf("Shift(3) of peak-21: %v, want peak at 0", shifted)
	}
	back := shifted.Shift(-3)
	if back != p {
		t.Error("Shift(-k) does not invert Shift(k)")
	}
	if p.Shift(24) != p || p.Shift(-24) != p {
		t.Error("Shift by full day should be identity")
	}
}

func TestShiftProperty(t *testing.T) {
	t.Parallel()
	prop := func(raw [24]uint8, k int8) bool {
		var p Profile
		var total float64
		for i, r := range raw {
			p[i] = float64(r)
			total += p[i]
		}
		if total == 0 {
			return true
		}
		for i := range p {
			p[i] /= total
		}
		s := p.Shift(int(k))
		// Mass is conserved and round trip restores.
		if !almostEqual(s.Sum(), 1, 1e-9) {
			return false
		}
		return s.Shift(-int(k)) == p
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestZoneProfileConvention(t *testing.T) {
	t.Parallel()
	// Generic local pattern peaking at local hour 21. A crowd at UTC+1
	// (Germany) exhibits that peak at 20:00 UTC.
	var generic Profile
	generic[21] = 1
	zone := ZoneProfile(generic, 1)
	if zone[20] != 1 {
		t.Errorf("UTC+1 zone profile: %v, want peak at UTC hour 20", zone)
	}
	// A crowd at UTC-6 peaks at 21+6 = 27 mod 24 = 3:00 UTC.
	zone = ZoneProfile(generic, -6)
	if zone[3] != 1 {
		t.Errorf("UTC-6 zone profile: %v, want peak at UTC hour 3", zone)
	}
	// ToLocal inverts ZoneProfile.
	if got := ZoneProfile(generic, 5).ToLocal(5); got != generic {
		t.Error("ToLocal does not invert ZoneProfile")
	}
}

func TestZoneProfilesIndexing(t *testing.T) {
	t.Parallel()
	var generic Profile
	generic[12] = 1
	zones := ZoneProfiles(generic)
	if len(zones) != 24 {
		t.Fatalf("got %d zones", len(zones))
	}
	for i, z := range zones {
		off := OffsetOf(i)
		if ZoneIndex(off) != i {
			t.Errorf("ZoneIndex(OffsetOf(%d)) = %d", i, ZoneIndex(off))
		}
		want := ZoneProfile(generic, off)
		if z != want {
			t.Errorf("zone %d (offset %v) mismatch", i, off)
		}
	}
	if OffsetOf(0) != tz.MinOffset || OffsetOf(23) != tz.MaxOffset {
		t.Error("OffsetOf boundary mapping wrong")
	}
}

func TestAggregateEquationTwo(t *testing.T) {
	t.Parallel()
	var a, b Profile
	a[0] = 1
	b[12] = 1
	pop, err := Aggregate([]Profile{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(pop[0], 0.5, 1e-12) || !almostEqual(pop[12], 0.5, 1e-12) {
		t.Errorf("Aggregate = %v", pop)
	}
	if _, err := Aggregate(nil); err == nil {
		t.Error("empty aggregate should fail")
	}
}

func TestUniform(t *testing.T) {
	t.Parallel()
	u := Uniform()
	if !almostEqual(u.Sum(), 1, 1e-12) {
		t.Errorf("uniform sums to %g", u.Sum())
	}
	for h, v := range u {
		if !almostEqual(v, 1.0/24, 1e-15) {
			t.Errorf("uniform[%d] = %g", h, v)
		}
	}
}

func TestBuildUserProfilesThreshold(t *testing.T) {
	t.Parallel()
	var posts []trace.Post
	// "active" posts 35 times across distinct hours/days, "casual" posts 3 times.
	for i := 0; i < 35; i++ {
		posts = append(posts, trace.Post{
			UserID: "active",
			Time:   time.Date(2017, time.March, 1+i%28, (9+i)%24, 0, 0, 0, time.UTC),
		})
	}
	for i := 0; i < 3; i++ {
		posts = append(posts, trace.Post{
			UserID: "casual",
			Time:   time.Date(2017, time.March, 1+i, 10, 0, 0, 0, time.UTC),
		})
	}
	ds := trace.NewDataset("t", posts)
	profiles, err := BuildUserProfiles(ds, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := profiles["active"]; !ok {
		t.Error("active user missing")
	}
	if _, ok := profiles["casual"]; ok {
		t.Error("casual user should be filtered by the 30-post threshold")
	}
	// With a lower threshold the casual user survives.
	profiles, err = BuildUserProfiles(ds, BuildOptions{MinPosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := profiles["casual"]; !ok {
		t.Error("casual user should survive MinPosts=2")
	}
	// All below threshold: error.
	tiny := trace.NewDataset("", []trace.Post{{UserID: "x", Time: time.Now().UTC()}})
	if _, err := BuildUserProfiles(tiny, BuildOptions{}); err == nil {
		t.Error("no surviving users should fail")
	}
}

func TestRemoveHolidays(t *testing.T) {
	t.Parallel()
	de, err := tz.ByCode("de")
	if err != nil {
		t.Fatal(err)
	}
	ds := trace.NewDataset("", []trace.Post{
		{UserID: "u", Time: time.Date(2017, time.December, 25, 12, 0, 0, 0, time.UTC)},
		{UserID: "u", Time: time.Date(2017, time.May, 25, 12, 0, 0, 0, time.UTC)},
	})
	got := RemoveHolidays(ds, de)
	if got.NumPosts() != 1 {
		t.Fatalf("RemoveHolidays kept %d posts, want 1", got.NumPosts())
	}
	if got.Post(0).Time.Month() != time.May {
		t.Error("wrong post removed")
	}
}

func TestSortedUserIDs(t *testing.T) {
	t.Parallel()
	m := map[string]Profile{"b": {}, "a": {}, "c": {}}
	ids := SortedUserIDs(m)
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Errorf("SortedUserIDs = %v", ids)
	}
}

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestProfileEntropy(t *testing.T) {
	t.Parallel()
	u := Uniform()
	h, err := u.Entropy()
	if err != nil {
		t.Fatal(err)
	}
	if h < 4.58 || h > 4.59 {
		t.Errorf("uniform profile entropy = %g, want ~4.585", h)
	}
	var peaked Profile
	peaked[21] = 0.5
	peaked[20] = 0.5
	hp, err := peaked.Entropy()
	if err != nil {
		t.Fatal(err)
	}
	if hp >= h {
		t.Errorf("peaked entropy %g not below uniform %g", hp, h)
	}
}
