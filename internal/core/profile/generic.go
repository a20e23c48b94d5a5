package profile

import (
	"context"
	"fmt"
	"sort"

	"darkcrowd/internal/par"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// Generic-profile construction (§IV, Fig. 2b). The paper observes that
// once country crowds are shifted to a common time zone their profiles are
// nearly identical (Pearson ~ 0.9), so a single "generic profile" built on
// the whole labelled dataset serves as the reference pattern for *every*
// time zone: "we can easily build the profile for every region, even those
// not present in Table I, by just shifting the generic profile".

// RegionResolver maps a ground-truth region code to its tz.Region.
type RegionResolver func(code string) (tz.Region, error)

// CatalogueResolver resolves codes against the built-in tz catalogue.
func CatalogueResolver() RegionResolver {
	return tz.ByCode
}

// GenericOptions configures BuildGeneric.
type GenericOptions struct {
	// MinPosts is the active-user threshold (default 30).
	MinPosts int
	// Resolver maps ground-truth codes to regions
	// (default: the tz catalogue).
	Resolver RegionResolver
	// SkipHolidayFilter disables per-region holiday removal.
	SkipHolidayFilter bool
	// Parallelism is the number of workers building per-region profiles:
	// 0 uses every core (GOMAXPROCS), 1 forces the sequential path. The
	// per-region results are merged in sorted-code order, so the generic
	// profile is bit-identical for every setting.
	Parallelism int
	// Context, when non-nil, cancels a long build between regions.
	Context context.Context
}

// GenericResult is the outcome of BuildGeneric.
type GenericResult struct {
	// Generic is the local-frame population profile over all users.
	Generic Profile
	// PerRegion holds each region's local-frame population profile, keyed
	// by region code.
	PerRegion map[string]Profile
	// UserProfiles holds every active user's local-frame profile.
	UserProfiles map[string]Profile
	// ActiveUsers counts active (threshold-surviving) users per region
	// code — the Table I quantity.
	ActiveUsers map[string]int
}

// BuildGeneric builds the generic local-frame profile from a labelled
// dataset: every user's posts are bucketed by their region's DST-aware
// local hour, holidays are filtered on the region's calendar, users below
// the post threshold are dropped, and the surviving profiles are
// aggregated.
//
// Regions build concurrently (opts.Parallelism workers), each into its own
// slot of a code-ordered result slice; the cross-region aggregation then
// runs on one goroutine in sorted-code order. Besides enabling parallelism,
// the ordered merge makes the generic profile bit-deterministic — the
// previous map-iteration loop summed user profiles in a random order, so
// the aggregate drifted at the last-ulp level between runs.
func BuildGeneric(ds *trace.Dataset, opts GenericOptions) (*GenericResult, error) {
	if len(ds.GroundTruth) == 0 {
		return nil, fmt.Errorf("profile: dataset %q has no ground truth labels", ds.Name)
	}
	if opts.MinPosts == 0 {
		opts.MinPosts = DefaultMinPosts
	}
	if opts.Resolver == nil {
		opts.Resolver = CatalogueResolver()
	}

	// Group users by region code.
	usersByRegion := make(map[string][]string)
	for user, code := range ds.GroundTruth {
		usersByRegion[code] = append(usersByRegion[code], user)
	}
	codes := make([]string, 0, len(usersByRegion))
	for code := range usersByRegion {
		codes = append(codes, code)
	}
	sort.Strings(codes)

	// regionBuild is one region's shard result: the code-ordered slice slot
	// it fills is the only state a worker touches.
	type regionBuild struct {
		ok       bool      // region survived (has active users)
		ids      []string  // sorted active-user IDs
		profiles []Profile // their profiles, same order
		region   Profile   // the aggregated region profile
	}
	builds := make([]regionBuild, len(codes))
	err := par.Ranges(opts.Context, opts.Parallelism, len(codes), func(start, end int) error {
		for i := start; i < end; i++ {
			code := codes[i]
			region, err := opts.Resolver(code)
			if err != nil {
				return fmt.Errorf("profile: resolve region for code %q: %w", code, err)
			}
			users := usersByRegion[code]
			inRegion := make(map[string]bool, len(users))
			for _, u := range users {
				inRegion[u] = true
			}
			sub := ds.FilterUsers(func(u string) bool { return inRegion[u] })
			if !opts.SkipHolidayFilter {
				sub = RemoveHolidays(sub, region)
			}
			userProfiles, err := BuildUserProfiles(sub, BuildOptions{
				MinPosts:    opts.MinPosts,
				Cells:       LocalCells(region),
				Parallelism: opts.Parallelism,
				Context:     opts.Context,
			})
			if err != nil {
				continue // region has no active users; skip it
			}
			b := regionBuild{ids: SortedUserIDs(userProfiles)}
			for _, id := range b.ids {
				b.profiles = append(b.profiles, userProfiles[id])
			}
			regionProfile, err := Aggregate(b.profiles)
			if err != nil {
				continue
			}
			b.region = regionProfile
			b.ok = true
			builds[i] = b
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &GenericResult{
		PerRegion:    make(map[string]Profile),
		UserProfiles: make(map[string]Profile),
		ActiveUsers:  make(map[string]int),
	}
	var all []Profile
	for i, code := range codes {
		b := builds[i]
		if !b.ok {
			continue
		}
		for j, id := range b.ids {
			res.UserProfiles[id] = b.profiles[j]
		}
		all = append(all, b.profiles...)
		res.PerRegion[code] = b.region
		res.ActiveUsers[code] = len(b.ids)
	}
	generic, err := Aggregate(all)
	if err != nil {
		return nil, fmt.Errorf("profile: aggregate generic profile: %w", err)
	}
	res.Generic = generic
	return res, nil
}

// PolishResult reports the outcome of flat-profile polishing.
type PolishResult struct {
	// Kept maps surviving users to their profiles.
	Kept map[string]Profile
	// Removed lists the users discarded as flat, in removal order.
	Removed []string
	// Iterations is the number of polish passes run.
	Iterations int
}

// Polish implements the iterative flat-profile removal of §IV-C: a user is
// discarded when their profile is closer (under the circular EMD) to the
// artificial uniform 1/24 profile than to every one of the 24 time-zone
// reference profiles derived from the generic profile. Because removing
// users does not change the reference profiles but the paper applies the
// procedure "in an iterative way to polish all the generic timezone
// profiles", Polish optionally rebuilds the generic profile from the kept
// users after each pass when rebuild is true.
func Polish(profiles map[string]Profile, generic Profile, rebuild bool) (*PolishResult, error) {
	kept := make(map[string]Profile, len(profiles))
	for id, p := range profiles {
		kept[id] = p
	}
	res := &PolishResult{}
	uniform := Uniform()

	// One all-rotations kernel call per user per pass: the scan records
	// each user's nearest zone against generic, and the rebuild (which
	// replaces generic only after the pass) aligns kept users by that
	// recorded zone. The distance, rotation, and workspace buffers are
	// reused across every user and pass.
	dists := make([]float64, tz.HoursPerDay)
	rot := make([]float64, tz.HoursPerDay)
	scratch := make([]float64, 2*tz.HoursPerDay)

	const maxIterations = 10
	for iter := 0; iter < maxIterations; iter++ {
		res.Iterations = iter + 1
		ids := SortedUserIDs(kept)
		zones := make([]int, len(ids)) // nearest zone; -1 marks a flat user
		removed := 0
		for i, id := range ids {
			flat, err := isFlat(kept[id], uniform, generic, dists, rot, scratch)
			if err != nil {
				return nil, fmt.Errorf("profile: polish user %q: %w", id, err)
			}
			if flat {
				zones[i] = -1
				removed++
			} else {
				zones[i] = nearestZone(dists)
			}
		}
		if removed == 0 {
			break
		}
		var aligned []Profile
		for i, id := range ids {
			if zones[i] < 0 {
				delete(kept, id)
				res.Removed = append(res.Removed, id)
			} else if rebuild {
				// Align each kept user to its best zone so profiles from
				// different zones stack.
				aligned = append(aligned, kept[id].ToLocal(OffsetOf(zones[i])))
			}
		}
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

// zoneDistances fills dists[zi] with the circular EMD between p and the
// zone-zi reference profile derived from generic, for all 24 zones, using
// one EMDCircularAllRotations call. ZoneProfile(generic, off) is
// generic.Shift(-off), i.e. the rotation q_r of generic with r = off mod
// 24; with off = zi + tz.MinOffset the kernel's out[r] lands at
// dists[zi] = out[(zi + MinOffset) mod 24]. Each value is bit-identical to
// p.EMD(ZoneProfiles(generic)[zi]) — the kernel keeps EMDCircular's exact
// accumulation order and Shift copies values without arithmetic.
//
// dists and rot must hold 24 floats, scratch 48; all three are reused
// across calls.
func zoneDistances(p, generic Profile, dists, rot, scratch []float64) error {
	rot, err := stats.EMDCircularAllRotations(p[:], generic[:], rot, scratch)
	if err != nil {
		return err
	}
	for zi := 0; zi < tz.HoursPerDay; zi++ {
		dists[zi] = rot[(zi+int(tz.MinOffset)+tz.HoursPerDay)%tz.HoursPerDay]
	}
	return nil
}

// isFlat reports whether p is EMD-closer to the uniform profile than to
// every zone profile derived from generic.
func isFlat(p, uniform, generic Profile, dists, rot, scratch []float64) (bool, error) {
	dUniform, err := stats.EMDCircularScratch(p[:], uniform[:], scratch)
	if err != nil {
		return false, err
	}
	if err := zoneDistances(p, generic, dists, rot, scratch); err != nil {
		return false, err
	}
	for _, dz := range dists {
		if dz <= dUniform {
			return false, nil
		}
	}
	return true, nil
}

// nearestZone returns the zone index with minimal distance, breaking ties
// toward the lower index (strict less-than scan, matching the historical
// per-zone loop).
func nearestZone(dists []float64) int {
	best := 0
	for zi := 1; zi < len(dists); zi++ {
		if dists[zi] < dists[best] {
			best = zi
		}
	}
	return best
}
