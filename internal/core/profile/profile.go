// Package profile implements the paper's activity-profile machinery (§IV):
// per-user 24-hour activity distributions (Eq. 1), population aggregation
// (Eq. 2), time-zone shifting, the generic (UTC-aligned) profile, and the
// dataset-polishing pipeline (active-user threshold, holiday filtering and
// iterative flat-profile removal, §IV-C).
//
// Conventions. A Profile is a probability distribution over the 24 hours of
// a day. Profiles can live in two frames:
//
//   - the UTC frame: bin h holds the probability of activity during UTC
//     hour h. Profiles of anonymous crowds are always in this frame, since
//     Dark Web post timestamps are normalized to UTC.
//   - the local frame: bin h holds the probability of activity during the
//     *local* hour h of the user's region. Ground-truth datasets (with
//     known regions and DST rules) can be converted to this frame; the
//     paper's "generic profile" (Fig. 2b) is the aggregate of all users'
//     local-frame profiles.
//
// A crowd living at UTC offset k that behaves like the generic local
// pattern produces, in the UTC frame, the generic profile shifted so that
// its evening peak occurs k hours earlier on the UTC axis. ZoneProfile
// encodes that relation.
package profile

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"darkcrowd/internal/obs"
	"darkcrowd/internal/par"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// HoursPerDay is the number of bins in a profile.
const HoursPerDay = tz.HoursPerDay

// DefaultMinPosts is the paper's active-user threshold: "we chose the
// threshold to be 30 posts, as we noticed that it is a reasonable value to
// get a meaningful profile" (§IV).
const DefaultMinPosts = 30

// Profile is a probability distribution of activity over the 24 hours of
// the day (Eq. 1 and 2 of the paper). It always sums to 1 (within floating
// point error) unless it is the zero value.
type Profile [HoursPerDay]float64

// ErrNoActivity is returned when a profile would be built from no posts.
var ErrNoActivity = errors.New("profile: no activity to build a profile from")

// Uniform returns the artificial flat profile where every value is 1/24,
// used by the polishing step to detect bots (§IV-C).
func Uniform() Profile {
	var p Profile
	for i := range p {
		p[i] = 1.0 / HoursPerDay
	}
	return p
}

// Slice returns the profile as a fresh []float64.
func (p Profile) Slice() []float64 {
	out := make([]float64, HoursPerDay)
	copy(out, p[:])
	return out
}

// Sum returns the total mass (1 for a well-formed profile).
func (p Profile) Sum() float64 {
	return stats.Sum(p[:])
}

// Shift moves the activity pattern k hours later in the day: the value at
// bin h of the result is the value at bin (h-k) mod 24 of p. See
// ZoneProfile and ToLocal for the two frame conversions built on it.
func (p Profile) Shift(k int) Profile {
	var out Profile
	k = ((k % HoursPerDay) + HoursPerDay) % HoursPerDay
	for h := 0; h < HoursPerDay; h++ {
		out[h] = p[(h-k+HoursPerDay)%HoursPerDay]
	}
	return out
}

// ShiftFractional moves the activity pattern a fractional number of hours
// later in the day, redistributing each bin's mass between the two
// neighbouring destination bins (circular linear interpolation). Mass is
// conserved exactly; ShiftFractional(k) for integer k equals Shift(k).
func (p Profile) ShiftFractional(hours float64) Profile {
	var out Profile
	n := float64(HoursPerDay)
	shift := hours - n*float64(int(hours/n)) // reduce magnitude, keep sign
	if shift < 0 {
		shift += n
	}
	whole := int(shift)
	frac := shift - float64(whole)
	for h := 0; h < HoursPerDay; h++ {
		dst1 := (h + whole) % HoursPerDay
		dst2 := (dst1 + 1) % HoursPerDay
		out[dst1] += p[h] * (1 - frac)
		out[dst2] += p[h] * frac
	}
	return out
}

// ToLocal converts a UTC-frame profile of a crowd living at the given
// offset into the local frame: local hour h corresponds to UTC hour h-k.
func (p Profile) ToLocal(offset tz.Offset) Profile {
	return p.Shift(int(offset.Normalize()))
}

// ZoneProfile returns the UTC-frame reference profile of a crowd living at
// the given offset and behaving like the generic local-frame pattern: UTC
// hour h corresponds to local hour h+k.
func ZoneProfile(generic Profile, offset tz.Offset) Profile {
	return generic.Shift(-int(offset.Normalize()))
}

// ZoneProfiles returns the 24 UTC-frame reference profiles, indexed by
// zone index 0..23 (zone index i corresponds to offset i+MinOffset; see
// ZoneIndex/OffsetOf).
func ZoneProfiles(generic Profile) []Profile {
	offsets := tz.AllOffsets()
	out := make([]Profile, len(offsets))
	for i, off := range offsets {
		out[i] = ZoneProfile(generic, off)
	}
	return out
}

// ZoneIndex maps a UTC offset to its index in ZoneProfiles (0..23).
func ZoneIndex(o tz.Offset) int {
	return int(o.Normalize() - tz.MinOffset)
}

// OffsetOf is the inverse of ZoneIndex.
func OffsetOf(index int) tz.Offset {
	return (tz.Offset(index) + tz.MinOffset).Normalize()
}

// Pearson returns the Pearson correlation between two profiles. The paper
// reports r ~ 0.9 between any two country profiles shifted to a common
// frame, and r = 0.93 between the CRD Club profile and the generic Twitter
// profile.
func (p Profile) Pearson(q Profile) (float64, error) {
	return stats.Pearson(p[:], q[:])
}

// EMD returns the circular Earth Mover's Distance between two profiles on
// the 24-hour circle.
func (p Profile) EMD(q Profile) (float64, error) {
	return stats.EMDCircular(p[:], q[:])
}

// EMDLinear returns the linear (non-circular) EMD, kept for the ablation
// comparison.
func (p Profile) EMDLinear(q Profile) (float64, error) {
	return stats.EMDLinear(p[:], q[:])
}

// Entropy returns the Shannon entropy of the profile in bits: log2(24) for
// the uniform bot profile, noticeably lower for human diurnal profiles.
func (p Profile) Entropy() (float64, error) {
	return stats.Entropy(p[:])
}

// CellOf selects which civil frame posts are bucketed in: given a post's
// Unix-seconds timestamp, exactly as stored in the trace store's time
// column, it returns the hour bin 0..23 and an integer day key (days since
// the Unix epoch on that frame's calendar) that together identify the
// post's (day, hour) activity cell. Integer day keys replace the old
// "2006-01-02" strings: the mapping between calendar days and epoch-day
// numbers is a bijection, so cell identity is unchanged, while the hot
// loop never materializes a time.Time or formats a string.
type CellOf func(unixSec int64) (hour int, epochDay int64)

// cellOfUnix maps Unix seconds to (UTC hour, UTC epoch day) with floor
// division, so pre-1970 instants land on the correct calendar day.
func cellOfUnix(u int64) (int, int64) {
	day := u / 86400
	rem := u % 86400
	if rem < 0 {
		day--
		rem += 86400
	}
	return int(rem / 3600), day
}

// UTCCells buckets posts by UTC hour; day keys follow the UTC calendar.
func UTCCells() CellOf { return cellOfUnix }

// LocalCells buckets posts by the region's DST-aware local hour; day keys
// follow the local calendar. This implements the paper's "we have
// considered daylight saving time for all regions where it is used".
// Offsets are whole hours (tz.Offset), so the local civil hour and day
// fall out of integer arithmetic on the shifted epoch seconds. DST
// boundaries sit on whole-hour instants, so evaluating the offset at the
// floor-to-second time.Unix(u, 0) agrees with evaluating it at the
// original post time.
func LocalCells(region tz.Region) CellOf {
	return func(u int64) (int, int64) {
		off := region.OffsetAt(time.Unix(u, 0).UTC())
		return cellOfUnix(u + int64(off)*3600)
	}
}

// cellKey packs a (day, hour) activity cell into one int64.
func cellKey(hour int, epochDay int64) int64 {
	return epochDay*HoursPerDay + int64(hour)
}

// floorDiv3600 is floor(sec/3600): the UTC cell key
// cellKey(cellOfUnix(sec)) in one division, the build's default key.
func floorDiv3600(sec int64) int64 {
	q := sec / 3600
	if sec%3600 != 0 && sec < 0 {
		q--
	}
	return q
}

// fromCounts is the one integer-counts → Profile step of Eq. 1: each
// hour's distinct-cell count over the distinct total. The batch build and
// the Accumulator both end here, so they agree bit for bit whenever they
// count the same cells.
func fromCounts(counts *[HoursPerDay]int32, total int) Profile {
	var p Profile
	for h := range p {
		p[h] = float64(counts[h]) / float64(total)
	}
	return p
}

// fromCellKeys builds the Eq. 1 profile from packed cell keys, counting
// each distinct cell once. It sorts keys in place (the caller's slice is
// scratch) and allocates nothing — duplicate detection is a comparison with
// the previous sorted key, not a map insert.
func fromCellKeys(keys []int64) (Profile, error) {
	if len(keys) == 0 {
		return Profile{}, ErrNoActivity
	}
	slices.Sort(keys)
	var counts [HoursPerDay]int32
	total := 0
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		counts[((k%HoursPerDay)+HoursPerDay)%HoursPerDay]++
		total++
	}
	return fromCounts(&counts, total), nil
}

// FromPosts builds the Eq. 1 user profile from a post list using the given
// bucketing frame (nil = UTCCells()):
//
//	P_u[h] = sum_d a_d(h) / sum_{d,h} a_d(h)
//
// where the boolean a_d(h) indicates whether the user posted during hour h
// of day d. Multiple posts in the same (day, hour) cell count once, which
// is what makes the profile a distribution of *activity* rather than of
// post volume.
func FromPosts(posts []trace.Post, cells CellOf) (Profile, error) {
	if cells == nil {
		cells = UTCCells()
	}
	keys := make([]int64, 0, len(posts))
	for _, post := range posts {
		keys = append(keys, cellKey(cells(post.Time.Unix())))
	}
	return fromCellKeys(keys)
}

// Aggregate builds the Eq. 2 population profile from user profiles:
//
//	P[h] = sum_u P_u[h] / sum_{u,h} P_u[h]
//
// Since every user profile sums to one, this is the arithmetic mean of the
// user profiles.
func Aggregate(profiles []Profile) (Profile, error) {
	if len(profiles) == 0 {
		return Profile{}, ErrNoActivity
	}
	var sum Profile
	var total float64
	for _, up := range profiles {
		for h := range sum {
			sum[h] += up[h]
			total += up[h]
		}
	}
	if total == 0 {
		return Profile{}, ErrNoActivity
	}
	for h := range sum {
		sum[h] /= total
	}
	return sum, nil
}

// BuildOptions configures BuildUserProfiles.
type BuildOptions struct {
	// MinPosts is the active-user threshold; users with fewer posts are
	// dropped. Defaults to DefaultMinPosts (30).
	MinPosts int
	// Cells selects the bucketing frame: the build feeds epoch seconds
	// straight from the trace store into it. Nil buckets in UTC with the
	// key floor(sec/3600), which is UTCCells()'s key in one division.
	Cells CellOf
	// Parallelism is the number of workers building per-user profiles:
	// 0 uses every core (GOMAXPROCS), 1 forces the sequential path. Each
	// user's profile depends only on that user's posts, so the output map
	// is identical for every setting.
	Parallelism int
	// Context, when non-nil, cancels a long build between users.
	Context context.Context
	// Obs, when non-nil, receives build metrics (profile.users_active,
	// profile.users_built, profile.cells_emitted) and a "profile-build"
	// stage span with per-shard timings. Observation only: the output map
	// is identical with or without it.
	Obs *obs.Observer
}

// BuildUserProfiles builds one profile per active user of the dataset.
// Users below the post threshold are silently dropped ("we have also
// filtered out non active users", §IV); an error is returned only if no
// user survives. The build runs on the dataset's columnar store: it
// thresholds users on their post count, and each of opts.Parallelism
// workers streams a user's epoch seconds into a reused key buffer, buckets
// them in place and dedups cells by sorting, allocating nothing per user.
// Every worker writes its own slots of an index-addressed result slice, so
// the map is the same for every worker count.
func BuildUserProfiles(ds *trace.Dataset, opts BuildOptions) (map[string]Profile, error) {
	return buildProfiles(ds.Index(), opts)
}

// BuildUserProfilesFused is BuildUserProfiles over the store of an
// IngestCSV result, in the default UTC frame only.
// Kept only for bench/traced.go; delete with the bench-spans item.
func BuildUserProfilesFused(cells *trace.UserCells, opts BuildOptions) (map[string]Profile, error) {
	if opts.Cells != nil {
		return nil, fmt.Errorf("profile: fused build only supports the default UTC frame")
	}
	return buildProfiles(cells.Store(), opts)
}

// appendUserKeys appends user u's packed cell keys, in dataset order, to
// buf: the store's epoch seconds, bucketed in place by cells, or by
// floorDiv3600 when cells is nil.
func appendUserKeys(buf []int64, s *trace.Store, u int, cells CellOf) []int64 {
	n := len(buf)
	buf = s.AppendUserTimes(buf, u)
	keys := buf[n:]
	if cells == nil {
		for i, sec := range keys {
			keys[i] = floorDiv3600(sec)
		}
	} else {
		for i, sec := range keys {
			keys[i] = cellKey(cells(sec))
		}
	}
	return buf
}

// buildProfiles is the one per-user Eq. 1 build loop.
func buildProfiles(s *trace.Store, opts BuildOptions) (map[string]Profile, error) {
	if opts.MinPosts == 0 {
		opts.MinPosts = DefaultMinPosts
	}
	active := make([]int, 0, s.NumUsers())
	for u := 0; u < s.NumUsers(); u++ {
		if s.Count(u) >= opts.MinPosts {
			active = append(active, u)
		}
	}
	o := opts.Obs.Stage("profile-build")
	defer o.End()
	o.SetWorkers(par.Workers(opts.Parallelism, len(active)))
	o.Counter("profile.users_active").Add(int64(len(active)))
	usersBuilt := o.Counter("profile.users_built")
	cellsEmitted := o.Counter("profile.cells_emitted")
	// A typed-nil *Span must not become a non-nil ShardObserver.
	var so par.ShardObserver
	if sp := o.SpanRef(); sp != nil {
		so = sp
	}
	built := make([]Profile, len(active))
	ok := make([]bool, len(active))
	err := par.RangesObserved(opts.Context, opts.Parallelism, len(active), func(start, end int) error {
		var keys []int64 // per-worker scratch, reused across users
		var builtN, cellsN int64
		for i := start; i < end; i++ {
			if opts.Context != nil && i&0xff == 0 {
				if err := opts.Context.Err(); err != nil {
					return err
				}
			}
			keys = appendUserKeys(keys[:0], s, active[i], opts.Cells)
			cellsN += int64(len(keys))
			p, err := fromCellKeys(keys)
			if err != nil {
				continue // no usable activity cells
			}
			built[i], ok[i] = p, true
			builtN++
		}
		usersBuilt.Add(builtN)
		cellsEmitted.Add(cellsN)
		return nil
	}, so)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Profile, len(active))
	for i, u := range active {
		if ok[i] {
			out[s.UserID(u)] = built[i]
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w (threshold %d)", ErrNoActivity, opts.MinPosts)
	}
	return out, nil
}

// SortedUserIDs returns the profile map's keys in sorted order, for
// deterministic iteration.
func SortedUserIDs(profiles map[string]Profile) []string {
	out := make([]string, 0, len(profiles))
	for id := range profiles {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RemoveHolidays drops posts falling in the region's holiday windows —
// "we have filtered out periods of particularly low activity, like
// holidays" (§IV).
func RemoveHolidays(ds *trace.Dataset, region tz.Region) *trace.Dataset {
	return ds.FilterPosts(func(p trace.Post) bool {
		return !region.IsHoliday(p.Time)
	})
}
