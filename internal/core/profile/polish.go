package profile

import (
	"context"
	"fmt"
	"math"
	"slices"

	"darkcrowd/internal/obs"
	"darkcrowd/internal/par"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/tz"
)

// ZoneScan is one user's nearest-zone scan against a generic profile: the
// outcome of a single all-rotations EMD kernel call, which flat-profile
// polishing (§IV-C) and zone placement (§IV-A) both read.
type ZoneScan struct {
	// Zone is the index of the EMD-nearest zone profile; ties go to the
	// lower index.
	Zone int
	// Margin is the EMD gap between the runner-up zone and Zone (0 on an
	// exact tie).
	Margin float64
	// Flat reports that the profile is EMD-closer to the uniform 1/24
	// profile than to every zone profile.
	Flat bool
	// uniform is the EMD from the profile to the uniform profile, the
	// bound every later polish pass compares against. It does not depend
	// on the generic profile, so those passes carry it instead of
	// recomputing it.
	uniform float64
}

// ZoneScansCounter names the obs counter of zone scans, one
// all-rotations kernel call each; cache hits are not counted.
const ZoneScansCounter = "profile.zone_scans"

// FlatChecksCounter names the obs counter of the single-rotation EMD
// calls that polish passes after the first make to test flatness.
const FlatChecksCounter = "profile.flat_checks"

var uniform = Uniform()

// Scanner is the workspace of zone scans. The zero value is ready to use;
// a Scanner runs any number of scans, one at a time.
type Scanner struct {
	rot     [HoursPerDay]float64
	scratch [2 * HoursPerDay]float64
}

// Scan scans p against the 24 zone profiles derived from generic.
// ZoneProfile(generic, off) is generic.Shift(-off), the rotation of
// generic by r = off mod 24, so with off = zi + tz.MinOffset the kernel's
// out[r] is bit-identical to p.EMD(ZoneProfiles(generic)[zi]). A strict
// less-than over ascending zi then reproduces the per-zone loop's argmin,
// ties included, and the runner-up and the flat test read the same 24
// distances.
func (s *Scanner) Scan(p, generic Profile) (ZoneScan, error) {
	dUniform, err := stats.EMDCircularScratch(p[:], uniform[:], s.scratch[:])
	if err != nil {
		return ZoneScan{}, err
	}
	rot, err := stats.EMDCircularAllRotations(p[:], generic[:], s.rot[:], s.scratch[:])
	if err != nil {
		return ZoneScan{}, err
	}
	best := 0
	bestDist := rot[(int(tz.MinOffset)+HoursPerDay)%HoursPerDay]
	second := math.Inf(1)
	flat := !(bestDist <= dUniform)
	for zi := 1; zi < HoursPerDay; zi++ {
		d := rot[(zi+int(tz.MinOffset)+HoursPerDay)%HoursPerDay]
		if d <= dUniform {
			flat = false
		}
		switch {
		case d < bestDist:
			best, bestDist, second = zi, d, bestDist
		case d < second:
			second = d
		}
	}
	return ZoneScan{Zone: best, Margin: second - bestDist, Flat: flat, uniform: dUniform}, nil
}

// zoneRotations holds the 24 zone profiles derived from a generic
// profile as the kernel's rotations: z[zi] is q_r, with q_r[i] =
// generic[(i+r) mod 24] and r = zi + tz.MinOffset mod 24, the rotation
// Scan reads as the kernel's out[r] for zone zi. So a single-rotation EMD
// against z[zi] is bit-identical to that out[r].
type zoneRotations [HoursPerDay]Profile

func rotationsOf(generic Profile) *zoneRotations {
	var z zoneRotations
	for zi := range z {
		r := (zi + int(tz.MinOffset) + HoursPerDay) % HoursPerDay
		for i := range z[zi] {
			z[zi][i] = generic[(i+r)%HoursPerDay]
		}
	}
	return &z
}

// flat reports the flat verdict of p, whose scan against an earlier
// generic profile is last, against the zone profiles in z: whether no
// zone is within last.uniform of p. It tries the zones in order from
// last.Zone and stops at the first one within the bound, so a kept user
// usually costs one EMD call. The comparison is Scan's, so the verdict is
// the one a full scan against the same generic profile would return.
// calls is the number of EMD calls made.
func (s *Scanner) flat(p Profile, z *zoneRotations, last ZoneScan) (flat bool, calls int64, err error) {
	for k := 0; k < HoursPerDay; k++ {
		zi := (last.Zone + k) % HoursPerDay
		d, err := stats.EMDCircularScratch(p[:], z[zi][:], s.scratch[:])
		if err != nil {
			return false, calls, err
		}
		calls++
		if d <= last.uniform {
			return false, calls, nil
		}
	}
	return true, calls, nil
}

// ScanOptions configures ScanUsers and PolishWith.
type ScanOptions struct {
	// Parallelism is the number of scan workers: 0 uses every core
	// (GOMAXPROCS), 1 forces the sequential path. Each worker fills its
	// own range of a position-addressed result, so the scans are identical
	// for every setting.
	Parallelism int
	// Context, when non-nil, cancels a scan between users.
	Context context.Context
	// Obs, when non-nil, counts kernel calls under ZoneScansCounter and
	// records the worker count and per-shard timings on its span.
	// Observation only.
	Obs *obs.Observer
	// Cache holds earlier scans against the same generic profile of users
	// whose profile has not changed since; those users skip the kernel.
	// PolishWith consults it in pass 1 only, the one pass against the
	// caller's generic profile.
	Cache map[string]ZoneScan
}

// ScanUsers scans the profile of every ids[i] against generic into the
// i-th slot of the result.
func ScanUsers(profiles map[string]Profile, ids []string, generic Profile, opts ScanOptions) ([]ZoneScan, error) {
	out := make([]ZoneScan, len(ids))
	scans := opts.Obs.Counter(ZoneScansCounter)
	opts.Obs.SetWorkers(par.Workers(opts.Parallelism, len(ids)))
	err := par.RangesObserved(opts.Context, opts.Parallelism, len(ids), func(start, end int) error {
		var s Scanner
		var n int64
		for i := start; i < end; i++ {
			if opts.Context != nil && i&0xff == 0 {
				if err := opts.Context.Err(); err != nil {
					return err
				}
			}
			if c, ok := opts.Cache[ids[i]]; ok {
				out[i] = c
				continue
			}
			sc, err := s.Scan(profiles[ids[i]], generic)
			if err != nil {
				return fmt.Errorf("profile: zone scan of user %q: %w", ids[i], err)
			}
			out[i] = sc
			n++
		}
		scans.Add(n)
		return nil
	}, shardObserver(opts.Obs))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// shardObserver returns o's span as the shard observer of a parallel
// pass, or nil: a typed-nil *Span must not become a non-nil
// ShardObserver.
func shardObserver(o *obs.Observer) par.ShardObserver {
	if sp := o.SpanRef(); sp != nil {
		return sp
	}
	return nil
}

// PolishResult reports the outcome of flat-profile polishing.
type PolishResult struct {
	// Kept maps surviving users to their profiles.
	Kept map[string]Profile
	// Removed lists the users discarded as flat, in removal order.
	Removed []string
	// Iterations is the number of polish passes run.
	Iterations int
	// IDs lists the input users in sorted order, and Scans[i] is pass 1's
	// scan of IDs[i] against the caller's generic profile: the zone and
	// margin that placement reuses for the kept users.
	IDs   []string
	Scans []ZoneScan
}

// Polish is PolishWith with zero ScanOptions.
// Kept only for bench/traced.go; delete with the bench-spans item.
func Polish(profiles map[string]Profile, generic Profile, rebuild bool) (*PolishResult, error) {
	return PolishWith(profiles, generic, rebuild, ScanOptions{})
}

// PolishWith implements the iterative flat-profile removal of §IV-C: a
// user is discarded when their profile is closer (under the circular EMD)
// to the artificial uniform 1/24 profile than to every one of the 24
// time-zone reference profiles derived from the generic profile. Because
// removing users does not change the reference profiles but the paper
// applies the procedure "in an iterative way to polish all the generic
// timezone profiles", PolishWith optionally rebuilds the generic profile
// from the kept users after each pass when rebuild is true.
//
// Pass 1 is one zone scan per user: its flat verdicts pick the removals,
// and its zones align the kept users for the rebuild and are returned for
// placement. A later pass needs only each kept user's flat verdict against
// the rebuilt generic profile, which a first-success walk of single
// rotations gives (Scanner.flat); the kept users are scanned in full again
// only when the pass removed someone and a rebuild will read their zones.
// Removals and the rebuild walk the users in sorted order, so the result
// is the same for every Parallelism.
func PolishWith(profiles map[string]Profile, generic Profile, rebuild bool, opts ScanOptions) (*PolishResult, error) {
	ids := SortedUserIDs(profiles)
	scans, err := ScanUsers(profiles, ids, generic, opts)
	if err != nil {
		return nil, err
	}
	opts.Cache = nil
	res := &PolishResult{IDs: ids, Scans: scans, Iterations: 1}
	// live lists the positions in ids of the users still kept, ascending.
	// last[i] is ids[i]'s latest full scan, against the generic profile of
	// the pass that made it, and flat[i] its verdict in the current pass.
	live := make([]int, len(ids))
	flat := make([]bool, len(ids))
	last := scans
	removed := 0
	for i, s := range scans {
		live[i], flat[i] = i, s.Flat
		if s.Flat {
			removed++
		}
	}
	const maxIterations = 10
	for removed > 0 {
		if res.Removed == nil {
			res.Removed = make([]string, 0, removed)
		}
		next := make([]int, 0, len(live)-removed)
		for _, i := range live {
			if flat[i] {
				res.Removed = append(res.Removed, ids[i])
			} else {
				next = append(next, i)
			}
		}
		live = next
		if !rebuild || len(live) == 0 || res.Iterations == maxIterations {
			break
		}
		if res.Iterations > 1 {
			// The survivors' zones against this pass's generic profile
			// align them for the rebuild.
			keptIDs := make([]string, len(live))
			for k, i := range live {
				keptIDs[k] = ids[i]
			}
			rescans, err := ScanUsers(profiles, keptIDs, generic, opts)
			if err != nil {
				return nil, err
			}
			if res.Iterations == 2 {
				last = slices.Clone(scans) // res.Scans stays pass 1's
			}
			for k, i := range live {
				last[i] = rescans[k]
			}
		}
		aligned := make([]Profile, len(live))
		for k, i := range live {
			// Align each kept user to its best zone so profiles from
			// different zones stack.
			aligned[k] = profiles[ids[i]].ToLocal(OffsetOf(last[i].Zone))
		}
		if generic, err = Aggregate(aligned); err != nil {
			return nil, fmt.Errorf("profile: rebuild generic during polish: %w", err)
		}
		res.Iterations++
		if removed, err = flatPass(profiles, ids, live, last, generic, flat, opts); err != nil {
			return nil, err
		}
	}
	res.Kept = make(map[string]Profile, len(live))
	for _, i := range live {
		res.Kept[ids[i]] = profiles[ids[i]]
	}
	return res, nil
}

// flatPass sets flat[i] to the flat verdict against generic of ids[i],
// for each position i in live, starting its walk at last[i], and returns
// how many are flat. It counts its EMD calls under FlatChecksCounter.
func flatPass(profiles map[string]Profile, ids []string, live []int, last []ZoneScan, generic Profile, flat []bool, opts ScanOptions) (int, error) {
	z := rotationsOf(generic)
	checks := opts.Obs.Counter(FlatChecksCounter)
	err := par.RangesObserved(opts.Context, opts.Parallelism, len(live), func(start, end int) error {
		var s Scanner
		var n int64
		for k := start; k < end; k++ {
			if opts.Context != nil && k&0xff == 0 {
				if err := opts.Context.Err(); err != nil {
					return err
				}
			}
			i := live[k]
			f, calls, err := s.flat(profiles[ids[i]], z, last[i])
			if err != nil {
				return fmt.Errorf("profile: flat check of user %q: %w", ids[i], err)
			}
			flat[i] = f
			n += calls
		}
		checks.Add(n)
		return nil
	}, shardObserver(opts.Obs))
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, i := range live {
		if flat[i] {
			removed++
		}
	}
	return removed, nil
}
