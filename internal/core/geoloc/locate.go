package geoloc

import (
	"context"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
)

// LocateOptions configures LocateCrowd.
type LocateOptions struct {
	// SkipPolish disables flat-profile removal (§IV-C).
	SkipPolish bool
	// Margins records each kept user's placement margin (see
	// PlaceOptions.Margins).
	Margins bool
	// MaxComponents bounds the GMM model search. Defaults to 4.
	MaxComponents int
	// Parallelism is the worker count of the zone scans and the per-k EM
	// fits: 0 uses every core (GOMAXPROCS), 1 forces the sequential path.
	// The result is bit-for-bit identical for every setting.
	Parallelism int
	// Context, when non-nil, cancels the step between users and stages.
	Context context.Context
	// Obs, when non-nil, receives the polish, placement and em-select stage
	// spans and their metrics. Observation only.
	Obs *obs.Observer
	// Cache holds earlier zone scans against generic of users whose
	// profile has not changed since (see profile.ScanOptions.Cache); the
	// first scan of the step skips the kernel for them.
	Cache map[string]profile.ZoneScan
}

// LocateCrowd is the paper's crowd-geolocation step on a set of user
// profiles: polish away flat profiles (§IV-C), place every kept user on
// its EMD-nearest zone (§IV-A), and fit the placement histogram with a
// BIC-selected Gaussian mixture (§IV-B). It returns the polishing outcome
// and the fit, whose Placement is the kept users' placement.
//
// A kept user's placement is polish pass 1's zone scan: pass 1 scans
// every user against the unchanged generic profile, which is exactly what
// placement would compute, so placement runs no kernel call of its own.
// With SkipPolish the polishing outcome keeps every user after zero
// passes. Its IDs and Scans hold the step's first scan against generic of
// every input user — polish pass 1, or the placement sweep without
// polishing — which a caller can keep as a later Cache. LocateCrowd
// returns ErrNoProfiles when profiles is empty or polishing removes every
// user.
func LocateCrowd(profiles map[string]profile.Profile, generic profile.Profile, opts LocateOptions) (*profile.PolishResult, *Geolocation, error) {
	if len(profiles) == 0 {
		return nil, nil, ErrNoProfiles
	}
	scan := profile.ScanOptions{Parallelism: opts.Parallelism, Context: opts.Context, Cache: opts.Cache}
	polished := &profile.PolishResult{Kept: profiles}
	if !opts.SkipPolish {
		po := opts.Obs.Stage("polish")
		scan.Obs = po
		var err error
		polished, err = profile.PolishWith(profiles, generic, true, scan)
		if err != nil {
			po.End()
			return nil, nil, err
		}
		po.AddItems(int64(len(polished.Kept)))
		po.Counter("polish.users_kept").Add(int64(len(polished.Kept)))
		po.Counter("polish.users_removed").Add(int64(len(polished.Removed)))
		po.End()
		if len(polished.Kept) == 0 {
			return nil, nil, ErrNoProfiles
		}
	}

	po := opts.Obs.Stage("placement")
	if opts.SkipPolish {
		ids := profile.SortedUserIDs(profiles)
		scan.Obs = po
		scans, err := profile.ScanUsers(profiles, ids, generic, scan)
		if err != nil {
			po.End()
			return nil, nil, err
		}
		polished.IDs, polished.Scans = ids, scans
	}
	placement, samples := placementOf(polished.Kept, polished.IDs, polished.Scans, opts.Margins, po)
	po.End()
	if err := ctxErr(opts.Context); err != nil {
		return nil, nil, err
	}

	geo, err := fitPlacement(placement, samples, GeolocateOptions{
		MaxComponents: opts.MaxComponents,
		Parallelism:   opts.Parallelism,
		Obs:           opts.Obs,
	})
	if err != nil {
		return nil, nil, err
	}
	return polished, geo, nil
}

// ctxErr returns the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
