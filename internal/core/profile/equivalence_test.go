package profile

// Old-vs-new equivalence property tests for the allocation-free profile
// path: the legacy string-keyed cell dedup, the legacy time.Format hour
// bucketing, and the legacy per-zone EMD loops are reproduced here verbatim
// and the optimized implementations must match them bit for bit.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// legacyHourOf is the pre-optimization bucketing contract: hour bin plus a
// calendar-day string key.
type legacyHourOf func(t time.Time) (hour int, day string)

func legacyUTCHours() legacyHourOf {
	return func(t time.Time) (int, string) {
		u := t.UTC()
		return u.Hour(), u.Format("2006-01-02")
	}
}

func legacyLocalHours(region tz.Region) legacyHourOf {
	return func(t time.Time) (int, string) {
		local := region.LocalTime(t)
		return local.Hour(), local.Format("2006-01-02")
	}
}

// legacyFromPosts is the pre-optimization Eq. 1 builder: map[string]bool
// dedup over fmt.Sprintf cell keys.
func legacyFromPosts(posts []trace.Post, hourOf legacyHourOf) (Profile, error) {
	seen := make(map[string]bool)
	var counts [HoursPerDay]float64
	var total float64
	for _, post := range posts {
		h, day := hourOf(post.Time)
		key := fmt.Sprintf("%s#%02d", day, h)
		if seen[key] {
			continue
		}
		seen[key] = true
		counts[h]++
		total++
	}
	if total == 0 {
		return Profile{}, ErrNoActivity
	}
	var p Profile
	for h := range counts {
		p[h] = counts[h] / total
	}
	return p, nil
}

// randomTimes produces instants spread over a year, concentrated enough to
// produce duplicate (day, hour) cells, including sub-second fractions and
// pre-1970 values.
func randomTimes(rng *rand.Rand, n int) []time.Time {
	out := make([]time.Time, 0, n)
	for i := 0; i < n; i++ {
		sec := int64(rng.Intn(365 * 24 * 3600))
		base := time.Date(2017, time.January, 1, 0, 0, 0, 0, time.UTC)
		if rng.Intn(10) == 0 {
			base = time.Date(1969, time.July, 1, 0, 0, 0, 0, time.UTC) // pre-epoch days
		}
		t := base.Add(time.Duration(sec) * time.Second)
		if rng.Intn(3) == 0 {
			t = t.Add(time.Duration(rng.Intn(1e9)) * time.Nanosecond)
		}
		out = append(out, t)
	}
	return out
}

func equivalenceRegions(t *testing.T) []tz.Region {
	t.Helper()
	out := []tz.Region{}
	for _, code := range []string{"de", "jp", "us-ca", "au-nsw", "uk", "br"} {
		r, err := tz.ByCode(code)
		if err != nil {
			t.Fatalf("resolve %q: %v", code, err)
		}
		out = append(out, r)
	}
	return out
}

// TestHourOfMatchesLegacyStringKeys pins the re-typed HourOf (and the
// columnar CellOf) to the legacy time.Format implementation: same hour, and
// a day key that distinguishes exactly the same calendar days.
func TestHourOfMatchesLegacyStringKeys(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	times := randomTimes(rng, 3000)
	regions := equivalenceRegions(t)
	for _, tc := range []struct {
		name   string
		hourOf HourOf
		cells  CellOf
		legacy legacyHourOf
	}{
		{"utc", UTCHours(), UTCCells(), legacyUTCHours()},
		{"de", LocalHours(regions[0]), LocalCells(regions[0]), legacyLocalHours(regions[0])},
		{"jp", LocalHours(regions[1]), LocalCells(regions[1]), legacyLocalHours(regions[1])},
		{"us-ca", LocalHours(regions[2]), LocalCells(regions[2]), legacyLocalHours(regions[2])},
		{"au-nsw", LocalHours(regions[3]), LocalCells(regions[3]), legacyLocalHours(regions[3])},
	} {
		dayOfString := map[string]int64{}
		stringOfDay := map[int64]string{}
		for _, at := range times {
			h, day := tc.hourOf(at)
			lh, lday := tc.legacy(at)
			if h != lh {
				t.Fatalf("%s: hour(%v) = %d, legacy %d", tc.name, at, h, lh)
			}
			// The integer day key must induce the same partition into days
			// as the legacy string key (bijective on observed days).
			if prev, ok := dayOfString[lday]; ok && prev != day {
				t.Fatalf("%s: day %q mapped to both %d and %d", tc.name, lday, prev, day)
			}
			if prev, ok := stringOfDay[day]; ok && prev != lday {
				t.Fatalf("%s: day key %d mapped to both %q and %q", tc.name, day, prev, lday)
			}
			dayOfString[lday] = day
			stringOfDay[day] = lday
			// CellOf must agree with HourOf at whole-second resolution.
			ch, cday := tc.cells(at.Unix())
			if ch != h || cday != day {
				t.Fatalf("%s: CellOf(%d) = (%d,%d), HourOf = (%d,%d)", tc.name, at.Unix(), ch, cday, h, day)
			}
		}
	}
}

// TestHourOfDSTBoundaries sweeps second-by-second windows around every DST
// transition of 2017 for a northern and a southern region.
func TestHourOfDSTBoundaries(t *testing.T) {
	t.Parallel()
	regions := equivalenceRegions(t)
	boundaries := []time.Time{}
	for _, r := range regions {
		prev := r.OffsetAt(time.Date(2017, time.January, 1, 0, 0, 0, 0, time.UTC))
		for d := time.Date(2017, time.January, 1, 0, 0, 0, 0, time.UTC); d.Year() == 2017; d = d.Add(time.Hour) {
			if cur := r.OffsetAt(d); cur != prev {
				boundaries = append(boundaries, d)
				prev = cur
			}
		}
	}
	if len(boundaries) == 0 {
		t.Fatal("no DST boundaries found in catalogue regions")
	}
	for _, r := range regions {
		hourOf, cells, legacy := LocalHours(r), LocalCells(r), legacyLocalHours(r)
		for _, b := range boundaries {
			for s := -3700; s <= 3700; s += 97 {
				at := b.Add(time.Duration(s) * time.Second)
				h, day := hourOf(at)
				lh, _ := legacy(at)
				if h != lh {
					t.Fatalf("%s at %v: hour %d, legacy %d", r.Code, at, h, lh)
				}
				ch, cday := cells(at.Unix())
				if ch != h || cday != day {
					t.Fatalf("%s at %v: CellOf disagrees with HourOf", r.Code, at)
				}
			}
		}
	}
}

// TestFromPostsMatchesLegacy asserts bit-identical profiles between the
// integer-keyed FromPosts and the string-keyed legacy implementation.
func TestFromPostsMatchesLegacy(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	regions := equivalenceRegions(t)
	for trial := 0; trial < 30; trial++ {
		times := randomTimes(rng, 50+rng.Intn(400))
		posts := make([]trace.Post, len(times))
		for i, at := range times {
			posts[i] = trace.Post{UserID: "u", Time: at}
		}
		region := regions[trial%len(regions)]
		for _, tc := range []struct {
			name   string
			hourOf HourOf
			legacy legacyHourOf
		}{
			{"utc", UTCHours(), legacyUTCHours()},
			{region.Code, LocalHours(region), legacyLocalHours(region)},
		} {
			got, err := FromPosts(posts, tc.hourOf)
			if err != nil {
				t.Fatal(err)
			}
			want, err := legacyFromPosts(posts, tc.legacy)
			if err != nil {
				t.Fatal(err)
			}
			if got != want { // array equality: bit-identical bins
				t.Fatalf("trial %d (%s): FromPosts differs from legacy\n got %v\nwant %v", trial, tc.name, got, want)
			}
		}
	}
}

// TestBuildUserProfilesColumnarMatchesRows asserts the columnar build and
// a row-oriented reference — FromPosts over each active user's post group
// — produce bit-identical profile maps, in UTC and local frames,
// sequential and parallel.
func TestBuildUserProfilesColumnarMatchesRows(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(43))
	var posts []trace.Post
	for u := 0; u < 30; u++ {
		id := fmt.Sprintf("user-%02d", u)
		for _, at := range randomTimes(rng, 20+rng.Intn(60)) {
			posts = append(posts, trace.Post{UserID: id, Time: at})
		}
	}
	ds := trace.NewDataset("eq", posts)
	de, err := tz.ByCode("de")
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range []struct {
		name   string
		cells  CellOf
		hourOf HourOf
	}{
		{"utc", nil, UTCHours()},
		{"de", LocalCells(de), LocalHours(de)},
	} {
		rows := make(map[string]Profile)
		for id, posts := range ds.ByUser() {
			if len(posts) < 10 {
				continue
			}
			p, err := FromPosts(posts, frame.hourOf)
			if err != nil {
				t.Fatal(err)
			}
			rows[id] = p
		}
		for _, workers := range []int{1, 4} {
			columnar, err := BuildUserProfiles(ds, BuildOptions{
				MinPosts: 10, Cells: frame.cells, Parallelism: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(columnar) != len(rows) {
				t.Fatalf("%s/%d workers: %d vs %d users", frame.name, workers, len(columnar), len(rows))
			}
			for id, p := range rows {
				if columnar[id] != p {
					t.Fatalf("%s/%d workers: user %q differs", frame.name, workers, id)
				}
			}
		}
	}
}

// TestZoneDistancesMatchPerZoneEMD pins the all-rotations kernel wiring
// (zoneDistances, nearestZone) to the legacy 24-call p.EMD(zone) loop.
func TestZoneDistancesMatchPerZoneEMD(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(44))
	dists := make([]float64, tz.HoursPerDay)
	rot := make([]float64, tz.HoursPerDay)
	scratch := make([]float64, 2*tz.HoursPerDay)
	for trial := 0; trial < 50; trial++ {
		var p, generic Profile
		var sp, sg float64
		for h := range p {
			p[h], generic[h] = rng.Float64(), rng.Float64()
			sp += p[h]
			sg += generic[h]
		}
		for h := range p {
			p[h] /= sp
			generic[h] /= sg
		}
		if err := zoneDistances(p, generic, dists, rot, scratch); err != nil {
			t.Fatal(err)
		}
		zones := ZoneProfiles(generic)
		legacyBest, legacyBestDist := -1, 0.0
		for zi, z := range zones {
			want, err := p.EMD(z)
			if err != nil {
				t.Fatal(err)
			}
			if dists[zi] != want {
				t.Fatalf("trial %d zone %d: dist %v, legacy %v", trial, zi, dists[zi], want)
			}
			if legacyBest == -1 || want < legacyBestDist {
				legacyBest, legacyBestDist = zi, want
			}
		}
		if got := nearestZone(dists); got != legacyBest {
			t.Fatalf("trial %d: nearestZone = %d, legacy argmin %d", trial, got, legacyBest)
		}
	}
}

// TestBuildUserProfilesSteadyStateAllocs verifies the ≥3x allocs/op claim
// structurally: the columnar per-user work (cell keys, dedup, profile)
// allocates nothing once worker scratch is warm.
func TestBuildUserProfilesSteadyStateAllocs(t *testing.T) {
	var posts []trace.Post
	base := time.Date(2017, time.May, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		posts = append(posts, trace.Post{
			UserID: "u",
			Time:   base.Add(time.Duration(i*7) * time.Hour),
		})
	}
	ds := trace.NewDataset("allocs", posts)
	src := storeCells{ds.Index(), UTCCells()}
	keys := make([]int64, 0, 256)
	avg := testing.AllocsPerRun(100, func() {
		keys = src.AppendUserKeys(keys[:0], 0)
		if _, err := fromCellKeys(keys); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("per-user profile build allocates %v times, want 0", avg)
	}
}
