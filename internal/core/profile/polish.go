package profile

import (
	"context"
	"fmt"
	"math"

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
}

// ZoneScansCounter names the obs counter of zone scans, one
// all-rotations kernel call each; cache hits are not counted.
const ZoneScansCounter = "profile.zone_scans"

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
	return ZoneScan{Zone: best, Margin: second - bestDist, Flat: flat}, nil
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
	// A typed-nil *Span must not become a non-nil ShardObserver.
	var so par.ShardObserver
	if sp := opts.Obs.SpanRef(); sp != nil {
		so = sp
	}
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
	}, so)
	if err != nil {
		return nil, err
	}
	return out, nil
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
// Each pass is one zone scan per kept user: the flat verdicts pick the
// removals, and the rebuild (which replaces generic only after the pass)
// aligns the kept users by their scanned zones. Removals and the rebuild
// walk the users in sorted order, so the result is the same for every
// Parallelism.
func PolishWith(profiles map[string]Profile, generic Profile, rebuild bool, opts ScanOptions) (*PolishResult, error) {
	kept := make(map[string]Profile, len(profiles))
	for id, p := range profiles {
		kept[id] = p
	}
	res := &PolishResult{IDs: SortedUserIDs(kept)}
	ids := res.IDs
	const maxIterations = 10
	for iter := 0; iter < maxIterations; iter++ {
		res.Iterations = iter + 1
		scans, err := ScanUsers(kept, ids, generic, opts)
		if err != nil {
			return nil, err
		}
		if iter == 0 {
			res.Scans = scans
			opts.Cache = nil
		}
		removed := 0
		for _, s := range scans {
			if s.Flat {
				removed++
			}
		}
		if removed == 0 {
			break
		}
		next := make([]string, 0, len(ids)-removed)
		var aligned []Profile
		for i, id := range ids {
			if scans[i].Flat {
				delete(kept, id)
				res.Removed = append(res.Removed, id)
				continue
			}
			next = append(next, id)
			if rebuild {
				// Align each kept user to its best zone so profiles from
				// different zones stack.
				aligned = append(aligned, kept[id].ToLocal(OffsetOf(scans[i].Zone)))
			}
		}
		ids = next
		if !rebuild || len(kept) == 0 {
			break
		}
		g, err := Aggregate(aligned)
		if err != nil {
			return nil, fmt.Errorf("profile: rebuild generic during polish: %w", err)
		}
		generic = g
	}
	res.Kept = kept
	return res, nil
}
