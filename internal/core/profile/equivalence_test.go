package profile

// Old-vs-new equivalence property tests for the allocation-free profile
// path: the legacy string-keyed cell dedup, the legacy time.Format hour
// bucketing, and the legacy per-zone EMD loops are reproduced here verbatim
// and the optimized implementations must match them bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"darkcrowd/internal/stats"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// legacyCellOf is the pre-optimization bucketing contract: hour bin plus a
// calendar-day string key.
type legacyCellOf func(t time.Time) (hour int, day string)

func legacyUTCCells() legacyCellOf {
	return func(t time.Time) (int, string) {
		u := t.UTC()
		return u.Hour(), u.Format("2006-01-02")
	}
}

func legacyLocalCells(region tz.Region) legacyCellOf {
	return func(t time.Time) (int, string) {
		local := region.LocalTime(t)
		return local.Hour(), local.Format("2006-01-02")
	}
}

// legacyFromPosts is the pre-optimization Eq. 1 builder: map[string]bool
// dedup over fmt.Sprintf cell keys.
func legacyFromPosts(posts []trace.Post, cellOf legacyCellOf) (Profile, error) {
	seen := make(map[string]bool)
	var counts [HoursPerDay]float64
	var total float64
	for _, post := range posts {
		h, day := cellOf(post.Time)
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

// legacyDay renders an epoch-day key as the legacy "2006-01-02" string.
func legacyDay(epochDay int64) string {
	return time.Unix(epochDay*86400, 0).UTC().Format("2006-01-02")
}

// TestCellOfMatchesLegacyStringKeys pins CellOf to the legacy time.Format
// implementation at whole-second resolution: same hour, and an epoch-day
// key naming the same calendar day as the legacy string key.
func TestCellOfMatchesLegacyStringKeys(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	times := randomTimes(rng, 3000)
	regions := equivalenceRegions(t)
	for _, tc := range []struct {
		name   string
		cells  CellOf
		legacy legacyCellOf
	}{
		{"utc", UTCCells(), legacyUTCCells()},
		{"de", LocalCells(regions[0]), legacyLocalCells(regions[0])},
		{"jp", LocalCells(regions[1]), legacyLocalCells(regions[1])},
		{"us-ca", LocalCells(regions[2]), legacyLocalCells(regions[2])},
		{"au-nsw", LocalCells(regions[3]), legacyLocalCells(regions[3])},
	} {
		for _, at := range times {
			h, day := tc.cells(at.Unix())
			lh, lday := tc.legacy(at)
			if h != lh || legacyDay(day) != lday {
				t.Fatalf("%s: CellOf(%v) = (%d, %s), legacy (%d, %s)", tc.name, at, h, legacyDay(day), lh, lday)
			}
		}
	}
}

// TestCellOfDSTBoundaries sweeps windows around every DST transition of
// 2017 for northern and southern regions, comparing LocalCells with the
// legacy bucketing.
func TestCellOfDSTBoundaries(t *testing.T) {
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
		cells, legacy := LocalCells(r), legacyLocalCells(r)
		for _, b := range boundaries {
			for s := -3700; s <= 3700; s += 97 {
				at := b.Add(time.Duration(s) * time.Second)
				h, day := cells(at.Unix())
				lh, lday := legacy(at)
				if h != lh || legacyDay(day) != lday {
					t.Fatalf("%s at %v: CellOf (%d, %s), legacy (%d, %s)", r.Code, at, h, legacyDay(day), lh, lday)
				}
			}
		}
	}
}

// TestFloorDiv3600MatchesCellKey pins the build's default key:
// floorDiv3600(sec) is cellKey(cellOfUnix(sec)) at pre-1970 instants, on
// both sides of hour and day edges, around ±2^40 s and at random seconds.
func TestFloorDiv3600MatchesCellKey(t *testing.T) {
	t.Parallel()
	check := func(sec int64) {
		if got, want := floorDiv3600(sec), cellKey(cellOfUnix(sec)); got != want {
			t.Fatalf("floorDiv3600(%d) = %d, cellKey(cellOfUnix) = %d", sec, got, want)
		}
	}
	const big = int64(1) << 40
	edges := []int64{0, 3600, -3600, 7200, -7200, 86400, -86400, 1509494400, -31536000,
		big, -big, big / 3600 * 3600, -big / 3600 * 3600, big / 86400 * 86400, -big / 86400 * 86400}
	for _, e := range edges {
		for d := int64(-2); d <= 2; d++ {
			check(e + d)
		}
	}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 100000; i++ {
		check(rng.Int63n(2*big+1) - big)
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
			cells  CellOf
			legacy legacyCellOf
		}{
			{"utc", UTCCells(), legacyUTCCells()},
			{region.Code, LocalCells(region), legacyLocalCells(region)},
		} {
			got, err := FromPosts(posts, tc.cells)
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
		name  string
		cells CellOf
	}{
		{"utc", nil},
		{"de", LocalCells(de)},
	} {
		rows := make(map[string]Profile)
		for id, posts := range ds.ByUser() {
			if len(posts) < 10 {
				continue
			}
			p, err := FromPosts(posts, frame.cells)
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
// (zoneDistances, nearestZone) to the legacy 24-call p.EMD(zone) loop, and
// Scanner.Scan to all three steps: the argmin, the runner-up gap and the
// flat test.
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
		if trial%5 == 0 {
			p = Uniform() // flat: at EMD 0 from uniform
		}
		var s Scanner
		got, err := s.Scan(p, generic)
		if err != nil {
			t.Fatal(err)
		}
		if err := zoneDistances(p, generic, dists, rot, scratch); err != nil {
			t.Fatal(err)
		}
		sorted := append([]float64(nil), dists...)
		slices.Sort(sorted)
		flat, err := isFlat(p, Uniform(), generic, dists, rot, scratch)
		if err != nil {
			t.Fatal(err)
		}
		dUniform, err := stats.EMDCircularScratch(p[:], Uniform().Slice(), scratch)
		if err != nil {
			t.Fatal(err)
		}
		want := ZoneScan{Zone: nearestZone(dists), Margin: sorted[1] - sorted[0], Flat: flat, uniform: dUniform}
		if got != want {
			t.Fatalf("trial %d: Scan = %+v, definition %+v", trial, got, want)
		}
		// The later polish passes' single-rotation EMDs read the same 24
		// distances bit for bit, so their flat verdict is Scan's from
		// whichever zone the walk starts at.
		z := rotationsOf(generic)
		for zi := range dists {
			d, err := stats.EMDCircularScratch(p[:], z[zi][:], scratch)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(d) != math.Float64bits(dists[zi]) {
				t.Fatalf("trial %d zone %d: single rotation %v, kernel %v", trial, zi, d, dists[zi])
			}
			from := got
			from.Zone = zi
			f, calls, err := s.flat(p, z, from)
			if err != nil {
				t.Fatal(err)
			}
			if f != flat || (flat && calls != HoursPerDay) || calls < 1 || calls > HoursPerDay {
				t.Fatalf("trial %d from zone %d: flat = %v after %d checks, Scan says %v", trial, zi, f, calls, flat)
			}
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
	keys := make([]int64, 0, 256)
	avg := testing.AllocsPerRun(100, func() {
		for _, cells := range []CellOf{nil, UTCCells()} {
			keys = appendUserKeys(keys[:0], ds.Index(), 0, cells)
			if _, err := fromCellKeys(keys); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("per-user profile build allocates %v times, want 0", avg)
	}
}
