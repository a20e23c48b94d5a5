package geoloc

import (
	"fmt"
	"math"
	"time"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// Telling apart the northern and the southern hemisphere (§V-F).
//
// Countries in the northern hemisphere observe DST from (about) March to
// October; southern countries from (about) October to February. For a user
// whose region observes DST, the UTC-frame activity profile of the
// DST period is displaced one hour *earlier* than the profile of the
// standard-time period (local habits stay put while the clock moves).
// Comparing a user's October-March profile with the March-October profile
// shifted by +1h, -1h and 0h under the EMD therefore reveals the
// hemisphere:
//
//   - northern users: Oct-Mar is standard time, Mar-Oct is DST, so the
//     Oct-Mar profile matches the Mar-Oct profile "adjusted forward one
//     hour";
//   - southern users: Oct-Mar is DST, so the match is with the Mar-Oct
//     profile adjusted *backward* one hour;
//   - users from no-DST countries: the two profiles match best unshifted.

// HemisphereVerdict is the §V-F classification of a single user.
type HemisphereVerdict struct {
	// Hemisphere is the ruling: north, south, or none (no DST evidence).
	Hemisphere tz.Hemisphere
	// OctMarPosts and MarOctPosts count the activity used per season.
	OctMarPosts, MarOctPosts int
	// DistanceForward, DistanceBackward and DistanceUnshifted are the EMD
	// values for the three whole-hour alignments the paper describes.
	DistanceForward, DistanceBackward, DistanceUnshifted float64
	// BestShift is the fractional forward shift of the Mar-Oct profile
	// that minimizes the EMD to the Oct-Mar profile; ~+1 indicates a
	// northern user, ~-1 a southern one, ~0 no DST.
	BestShift float64
	// BestDistance is the EMD at BestShift.
	BestDistance float64
}

// HemisphereOptions configures ClassifyHemisphere.
type HemisphereOptions struct {
	// MinPostsPerSeason is the minimum activity required in each seasonal
	// window; below it the classification fails. Defaults to 15.
	MinPostsPerSeason int
	// Margin is the relative advantage the best shifted alignment must
	// have over the unshifted one to rule for a DST hemisphere
	// (DistanceUnshifted >= (1+Margin) * BestDistance); it absorbs
	// sampling noise. Defaults to 0.4.
	Margin float64
	// SmoothPasses is the number of circular [1/4, 1/2, 1/4] smoothing
	// passes applied to the seasonal profiles before comparison. Hourly
	// sampling noise otherwise drowns the one-hour displacement the test
	// looks for. Defaults to 2.
	SmoothPasses int
	// NoSmoothing disables smoothing entirely (SmoothPasses is ignored).
	NoSmoothing bool
}

func (o HemisphereOptions) withDefaults() HemisphereOptions {
	if o.MinPostsPerSeason == 0 {
		o.MinPostsPerSeason = 15
	}
	if o.Margin == 0 {
		o.Margin = 0.4
	}
	if o.SmoothPasses == 0 {
		o.SmoothPasses = 2
	}
	if o.NoSmoothing {
		o.SmoothPasses = 0
	}
	return o
}

// smooth applies n circular binomial smoothing passes to a profile.
func smooth(p profile.Profile, n int) profile.Profile {
	for pass := 0; pass < n; pass++ {
		var out profile.Profile
		for h := 0; h < len(p); h++ {
			prev := p[(h-1+len(p))%len(p)]
			next := p[(h+1)%len(p)]
			out[h] = 0.25*prev + 0.5*p[h] + 0.25*next
		}
		p = out
	}
	return p
}

// octMar reports whether the UTC month belongs to the October-March
// window. The window boundaries stay strictly inside each hemisphere's
// DST/standard period (November-February versus April-September) so that
// the weeks around the clock changes do not contaminate either profile;
// March and October themselves are excluded because the two hemispheres
// switch mid-month.
func octMar(m time.Month) bool {
	return m == time.November || m == time.December || m == time.January || m == time.February
}

func marOct(m time.Month) bool {
	return m >= time.April && m <= time.September
}

// ClassifyHemisphere runs the §V-F test on one user's posts (timestamps in
// UTC).
func ClassifyHemisphere(posts []trace.Post, opts HemisphereOptions) (*HemisphereVerdict, error) {
	opts = opts.withDefaults()
	var octMarPosts, marOctPosts []trace.Post
	for _, p := range posts {
		switch m := p.Time.UTC().Month(); {
		case octMar(m):
			octMarPosts = append(octMarPosts, p)
		case marOct(m):
			marOctPosts = append(marOctPosts, p)
		}
	}
	if len(octMarPosts) < opts.MinPostsPerSeason || len(marOctPosts) < opts.MinPostsPerSeason {
		return nil, fmt.Errorf("geoloc: not enough seasonal activity (%d Oct-Mar, %d Mar-Oct, need %d each)",
			len(octMarPosts), len(marOctPosts), opts.MinPostsPerSeason)
	}
	pOctMar, err := profile.FromPosts(octMarPosts, profile.UTCCells())
	if err != nil {
		return nil, fmt.Errorf("geoloc: Oct-Mar profile: %w", err)
	}
	pMarOct, err := profile.FromPosts(marOctPosts, profile.UTCCells())
	if err != nil {
		return nil, fmt.Errorf("geoloc: Mar-Oct profile: %w", err)
	}
	pOctMar = smooth(pOctMar, opts.SmoothPasses)
	pMarOct = smooth(pMarOct, opts.SmoothPasses)

	verdict := &HemisphereVerdict{
		OctMarPosts: len(octMarPosts),
		MarOctPosts: len(marOctPosts),
	}
	if verdict.DistanceForward, err = pOctMar.EMD(pMarOct.Shift(1)); err != nil {
		return nil, fmt.Errorf("geoloc: forward alignment: %w", err)
	}
	if verdict.DistanceBackward, err = pOctMar.EMD(pMarOct.Shift(-1)); err != nil {
		return nil, fmt.Errorf("geoloc: backward alignment: %w", err)
	}
	if verdict.DistanceUnshifted, err = pOctMar.EMD(pMarOct); err != nil {
		return nil, fmt.Errorf("geoloc: unshifted alignment: %w", err)
	}

	// Estimate the fractional alignment shift that best matches the two
	// seasonal profiles. The grid covers the plausible DST range with a
	// little slack; the decision is by the sign and magnitude of the best
	// shift rather than by three isolated distance values, which makes
	// the ruling robust to hourly sampling noise.
	verdict.BestShift, verdict.BestDistance = bestAlignment(pOctMar, pMarOct)
	significant := verdict.DistanceUnshifted >= (1+opts.Margin)*verdict.BestDistance
	switch {
	case significant && verdict.BestShift >= 0.5:
		verdict.Hemisphere = tz.HemisphereNorth
	case significant && verdict.BestShift <= -0.5:
		verdict.Hemisphere = tz.HemisphereSouth
	default:
		// "If we do not see any particular difference in the two periods,
		// we assign the user to one of the countries that do not use
		// daylight saving time."
		verdict.Hemisphere = tz.HemisphereNone
	}
	return verdict, nil
}

// bestAlignment scans fractional forward shifts of q in [-2, +2] and
// returns the shift minimizing EMD(p, q shifted), with the matching
// distance.
func bestAlignment(p, q profile.Profile) (shift, dist float64) {
	const (
		lo, hi = -2.0, 2.0
		step   = 0.05
	)
	best := math.Inf(1)
	bestShift := 0.0
	for s := lo; s <= hi+1e-9; s += step {
		d, err := p.EMD(q.ShiftFractional(s))
		if err != nil {
			continue
		}
		if d < best {
			best = d
			bestShift = s
		}
	}
	return bestShift, best
}

// ClassifyTopUsers applies the hemisphere test to the n most active users
// of a dataset, as the paper does for the Pedo Support Community ("we limit
// our analysis to the 5 most active users of the forum"). Users whose
// seasonal activity is too thin are skipped with a nil verdict.
func ClassifyTopUsers(ds *trace.Dataset, n int, opts HemisphereOptions) (map[string]*HemisphereVerdict, error) {
	users := MostActiveUsers(ds, n)
	if len(users) == 0 {
		return nil, fmt.Errorf("geoloc: dataset %q has no users", ds.Name)
	}
	byUser := ds.ByUser()
	out := make(map[string]*HemisphereVerdict, len(users))
	for _, u := range users {
		verdict, err := ClassifyHemisphere(byUser[u], opts)
		if err != nil {
			out[u] = nil
			continue
		}
		out[u] = verdict
	}
	return out, nil
}
