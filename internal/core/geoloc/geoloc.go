// Package geoloc implements the paper's crowd-geolocation methodology
// (§IV-A/B): every anonymous user is placed on the time zone whose
// reference profile is closest under the Earth Mover's Distance, the
// resulting placement histogram is fitted with a single Gaussian
// (single-country crowds) or a Gaussian mixture estimated by EM
// (multiple-country crowds), and the fitted component means reveal the
// time zones the crowd lives in. The package also provides the Table II
// fit-quality metrics and the §V-F DST-based hemisphere classifier.
package geoloc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/par"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// DistanceKind selects the profile distance used for placement.
type DistanceKind int

// Distance kinds. The paper's methodology calls for the EMD on profiles
// that live on the 24-hour circle; the linear variant is kept for the
// ablation benchmark.
const (
	DistanceCircularEMD DistanceKind = iota + 1
	DistanceLinearEMD
)

// String implements fmt.Stringer.
func (d DistanceKind) String() string {
	switch d {
	case DistanceCircularEMD:
		return "circular-emd"
	case DistanceLinearEMD:
		return "linear-emd"
	default:
		return fmt.Sprintf("DistanceKind(%d)", int(d))
	}
}

// Placement is the outcome of assigning every member of a crowd to the
// nearest time zone (§IV-A).
type Placement struct {
	// Assignments maps each user to the offset of their nearest zone.
	Assignments map[string]tz.Offset
	// Histogram is the fraction of the crowd placed on each zone, indexed
	// by zone index (see profile.ZoneIndex); it sums to 1.
	Histogram []float64
	// Counts is the raw user count per zone index.
	Counts []int
	// Margins, when placement ran with PlaceOptions.Margins, maps each
	// user to their placement margin: the EMD gap between the runner-up
	// zone and the winning zone. A margin near zero means the placement
	// was nearly a coin flip between two zones; a large margin means the
	// user's profile points unambiguously at one zone. Nil when margin
	// recording was off, so pre-margin reports are unaffected.
	Margins map[string]float64 `json:",omitempty"`
}

// Samples returns one value per user — the zone index of the user's
// placement — in sorted-user order, ready to be fed to EM.
func (p *Placement) Samples() []float64 {
	users := make([]string, 0, len(p.Assignments))
	for u := range p.Assignments {
		users = append(users, u)
	}
	sort.Strings(users)
	out := make([]float64, 0, len(users))
	for _, u := range users {
		out = append(out, float64(profile.ZoneIndex(p.Assignments[u])))
	}
	return out
}

// PlaceOptions configures PlaceUsers.
type PlaceOptions struct {
	// Distance selects the placement metric.
	// Defaults to DistanceCircularEMD.
	Distance DistanceKind
	// Parallelism is the number of worker goroutines placing users: 0 uses
	// every core (GOMAXPROCS), 1 forces the sequential path, any other
	// value pins the pool size. Placement is deterministic: the output is
	// bit-for-bit identical for every setting (see the shard/merge note on
	// PlaceUsers).
	Parallelism int
	// Context, when non-nil, cancels a long placement run between users.
	Context context.Context
	// Obs, when non-nil, receives placement metrics
	// (placement.users_placed, per-zone counts) and a "placement" stage
	// span with per-shard timings. Observation only: the placement is
	// identical with or without it.
	Obs *obs.Observer
	// Margins records each user's placement margin (best-vs-runner-up EMD
	// gap) into Placement.Margins. The margin falls out of the same
	// all-rotations kernel call that picks the winning zone — no second
	// distance pass — so recording it does not change any assignment.
	Margins bool
}

// ErrNoProfiles is returned when there is no profile to place: an empty
// crowd, or one that polishing removes entirely.
var ErrNoProfiles = errors.New("geoloc: no profiles to place")

// PlaceUsers assigns every profile to its nearest time zone, comparing the
// user's UTC-frame profile against the 24 zone reference profiles derived
// from the generic profile: "we geolocate that member on the timezone whose
// activity profile is less distant" (§IV-A).
//
// The circular metric is one profile.ScanUsers sweep: workers fill
// disjoint ranges of a position-addressed scan slice, and the histogram,
// count and assignment merge runs after the join, in sorted user order, so
// the result is identical for every worker count. LocateCrowd places
// polished crowds without this sweep, from polish pass 1's scans.
func PlaceUsers(profiles map[string]profile.Profile, generic profile.Profile, opts PlaceOptions) (*Placement, error) {
	if len(profiles) == 0 {
		return nil, ErrNoProfiles
	}
	o := opts.Obs.Stage("placement")
	defer o.End()
	users := profile.SortedUserIDs(profiles)
	scans, err := scanZones(profiles, users, generic, opts.Distance, profile.ScanOptions{
		Parallelism: opts.Parallelism,
		Context:     opts.Context,
		Obs:         o,
	})
	if err != nil {
		return nil, err
	}
	return placementOf(profiles, users, scans, opts.Margins, o), nil
}

// PlaceOneMargin places a single profile — the per-user form of
// PlaceUsers — and returns its zone index and placement margin.
// Kept only for bench/traced.go; delete with the bench-spans item.
func PlaceOneMargin(p, generic profile.Profile, opts PlaceOptions) (int, float64, error) {
	if opts.Distance == DistanceLinearEMD {
		return nearestLinear(p, profile.ZoneProfiles(generic))
	}
	var s profile.Scanner
	sc, err := s.Scan(p, generic)
	return sc.Zone, sc.Margin, err
}

// scanZones scans users[i]'s nearest zone into the i-th slot: the circular
// metric through profile.ScanUsers, the linear ablation metric through its
// own per-zone loop.
func scanZones(profiles map[string]profile.Profile, users []string, generic profile.Profile, dist DistanceKind, opts profile.ScanOptions) ([]profile.ZoneScan, error) {
	if dist != DistanceLinearEMD {
		return profile.ScanUsers(profiles, users, generic, opts)
	}
	zones := profile.ZoneProfiles(generic)
	out := make([]profile.ZoneScan, len(users))
	err := par.Ranges(opts.Context, opts.Parallelism, len(users), func(start, end int) error {
		for i := start; i < end; i++ {
			zi, margin, err := nearestLinear(profiles[users[i]], zones)
			if err != nil {
				return fmt.Errorf("geoloc: distance for user %q: %w", users[i], err)
			}
			out[i] = profile.ZoneScan{Zone: zi, Margin: margin}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// nearestLinear is the linear-EMD ablation's zone loop: the strict
// less-than argmin over the zone profiles and the runner-up gap.
func nearestLinear(p profile.Profile, zones []profile.Profile) (int, float64, error) {
	best := -1
	bestDist := 0.0
	second := math.Inf(1)
	for zi := range zones {
		d, err := stats.EMDLinear(p[:], zones[zi][:])
		if err != nil {
			return 0, 0, fmt.Errorf("zone %d: %w", zi, err)
		}
		switch {
		case best == -1:
			best, bestDist = zi, d
		case d < bestDist:
			best, bestDist, second = zi, d, bestDist
		case d < second:
			second = d
		}
	}
	return best, second - bestDist, nil
}

// placementOf merges the scans of the users in kept into a Placement, in
// users order; users holds every key of kept.
func placementOf(kept map[string]profile.Profile, users []string, scans []profile.ZoneScan, margins bool, o *obs.Observer) *Placement {
	out := &Placement{
		Assignments: make(map[string]tz.Offset, len(kept)),
		Histogram:   make([]float64, tz.HoursPerDay),
		Counts:      make([]int, tz.HoursPerDay),
	}
	if margins {
		out.Margins = make(map[string]float64, len(kept))
	}
	for i, userID := range users {
		if _, ok := kept[userID]; !ok {
			continue
		}
		zi := scans[i].Zone
		out.Assignments[userID] = profile.OffsetOf(zi)
		out.Counts[zi]++
		if margins {
			out.Margins[userID] = scans[i].Margin
		}
	}
	total := float64(len(kept))
	for zi, c := range out.Counts {
		out.Histogram[zi] = float64(c) / total
	}
	o.Counter("placement.users_placed").Add(int64(len(kept)))
	return out
}

// SingleFit is the single-Gaussian placement fit used for single-country
// crowds (Figures 3-5): the center of the Gaussian uncovers the crowd's
// time zone.
type SingleFit struct {
	// Gaussian is the fitted curve, with Mean on the zone-index axis.
	Gaussian stats.Gaussian
	// PeakOffset is the fitted mean translated to a UTC offset (fractional
	// part carries sub-zone precision).
	PeakOffset float64
	// NearestOffset is PeakOffset rounded to the nearest integer zone.
	NearestOffset tz.Offset
	// AvgDistance and StdDistance are the Table II point-by-point
	// curve-to-histogram distance statistics.
	AvgDistance, StdDistance float64
}

// FitSingle fits one Gaussian to the placement histogram by least squares
// ("curve-fit the resulting distribution with a Gaussian", §IV-A).
func FitSingle(p *Placement) (*SingleFit, error) {
	g, err := stats.FitGaussianCircular(p.Histogram)
	if err != nil {
		return nil, fmt.Errorf("geoloc: single Gaussian fit: %w", err)
	}
	curve := stats.Mixture{g}.Curve(tz.HoursPerDay)
	avg, std, err := stats.PointwiseDistanceStats(curve, p.Histogram)
	if err != nil {
		return nil, fmt.Errorf("geoloc: fit-quality metrics: %w", err)
	}
	peak := zoneAxisToOffset(g.Mean)
	return &SingleFit{
		Gaussian:      g,
		PeakOffset:    peak,
		NearestOffset: nearestOffset(g.Mean),
		AvgDistance:   avg,
		StdDistance:   std,
	}, nil
}

// Component is one region of a mixed crowd, as uncovered by the GMM.
type Component struct {
	// Weight is the share of the crowd in this component.
	Weight float64
	// Offset is the component center translated to a (fractional) UTC
	// offset.
	Offset float64
	// NearestOffset is Offset rounded to the nearest integer zone.
	NearestOffset tz.Offset
	// Sigma is the component's standard deviation in zones.
	Sigma float64
}

// String renders the component the way the paper discusses them.
func (c Component) String() string {
	return fmt.Sprintf("%.0f%% of the crowd at %s (center %+.2f, sigma %.2f)",
		c.Weight*100, c.NearestOffset, c.Offset, c.Sigma)
}

// Geolocation is the full §IV-B result for a crowd of unknown origin.
type Geolocation struct {
	// Placement is the per-user zone assignment.
	Placement *Placement
	// Mixture is the EM-fitted model on the zone-index axis.
	Mixture stats.Mixture
	// Components lists the uncovered regions, heaviest first.
	Components []Component
	// AvgDistance and StdDistance are the Table II metrics for the
	// mixture curve against the placement histogram.
	AvgDistance, StdDistance float64
	// BIC is the selected model's Bayesian Information Criterion.
	BIC float64
	// Degraded is empty for a healthy mixture fit; otherwise it carries the
	// stats degradation reason (non-convergence, degenerate component). A
	// degraded geolocation is still the best available estimate — callers
	// should surface the reason as a warning rather than discard the result.
	Degraded string `json:",omitempty"`
	// MarginSummary aggregates the per-user placement margins when the
	// placement recorded them (PlaceOptions.Margins); nil otherwise, so
	// margin-off reports serialize exactly as before the field existed.
	MarginSummary *MarginStats `json:",omitempty"`
	// Confidence carries the bootstrap confidence intervals on the mixture
	// components when the caller ran BootstrapMixtureCI; nil otherwise.
	Confidence *BootstrapResult `json:"confidence,omitempty"`
}

// MarginStats summarizes the distribution of per-user placement margins —
// how decisively the crowd's members landed on their zones. All values are
// EMD gaps on the same scale as the placement distance.
type MarginStats struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
}

// SummarizeMargins computes MarginStats over a placement's recorded
// margins; nil when the placement carries none. The median of an even
// count is the mean of the two middle values.
func SummarizeMargins(p *Placement) *MarginStats {
	if len(p.Margins) == 0 {
		return nil
	}
	vals := make([]float64, 0, len(p.Margins))
	for _, m := range p.Margins {
		vals = append(vals, m)
	}
	sort.Float64s(vals)
	s := &MarginStats{Min: vals[0], Max: vals[len(vals)-1]}
	n := len(vals)
	if n%2 == 1 {
		s.Median = vals[n/2]
	} else {
		s.Median = (vals[n/2-1] + vals[n/2]) / 2
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	s.Mean = sum / float64(n)
	return s
}

// GeolocateOptions configures FitPlacement.
type GeolocateOptions struct {
	// MaxComponents bounds the GMM model search. Defaults to 4.
	MaxComponents int
	// Parallelism is the number of per-k EM fits run at once (see
	// stats.EMConfig.Parallelism).
	Parallelism int
	// Obs, when non-nil, receives the em-select stage. Observation only.
	Obs *obs.Observer
}

// FitPlacement runs the model-fitting half of §IV-B on a placement: EM
// mixture selection with BIC, then the Table II fit-quality metrics.
func FitPlacement(placement *Placement, opts GeolocateOptions) (*Geolocation, error) {
	if opts.MaxComponents == 0 {
		opts.MaxComponents = 4
	}
	res, err := stats.SelectMixture(placement.Samples(), opts.MaxComponents, stats.EMConfig{
		Period:      tz.HoursPerDay,
		Parallelism: opts.Parallelism,
		Obs:         opts.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("geoloc: mixture selection: %w", err)
	}
	curve := res.Mixture.Curve(tz.HoursPerDay)
	avg, std, err := stats.PointwiseDistanceStats(curve, placement.Histogram)
	if err != nil {
		return nil, fmt.Errorf("geoloc: fit-quality metrics: %w", err)
	}
	components := make([]Component, 0, len(res.Mixture))
	for _, g := range res.Mixture {
		components = append(components, Component{
			Weight:        g.Weight,
			Offset:        zoneAxisToOffset(g.Mean),
			NearestOffset: nearestOffset(g.Mean),
			Sigma:         g.Sigma,
		})
	}
	return &Geolocation{
		Placement:     placement,
		Mixture:       res.Mixture,
		Components:    components,
		AvgDistance:   avg,
		StdDistance:   std,
		BIC:           res.BIC,
		Degraded:      res.Degraded,
		MarginSummary: SummarizeMargins(placement),
	}, nil
}

// zoneAxisToOffset converts a (possibly fractional) zone index on the EM
// axis to a UTC offset value.
func zoneAxisToOffset(mean float64) float64 {
	off := mean + float64(tz.MinOffset)
	// Wrap into (-12, +12].
	for off > 12 {
		off -= tz.HoursPerDay
	}
	for off <= -12 {
		off += tz.HoursPerDay
	}
	return off
}

func nearestOffset(mean float64) tz.Offset {
	// math.Floor, not int(): int truncates toward zero, so a slightly
	// negative mean (legal on the circular zone axis) would round to
	// zone 0 instead of wrapping to zone 23.
	zi := int(math.Floor(mean + 0.5))
	return profile.OffsetOf(((zi % tz.HoursPerDay) + tz.HoursPerDay) % tz.HoursPerDay)
}

// MostActiveUsers returns the n users with the most posts, most active
// first; ties break alphabetically. The paper uses the five most active
// users of a forum for hemisphere analysis (§V-F).
func MostActiveUsers(ds *trace.Dataset, n int) []string {
	counts := ds.PostCounts()
	users := make([]string, 0, len(counts))
	for u := range counts {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool {
		if counts[users[i]] != counts[users[j]] {
			return counts[users[i]] > counts[users[j]]
		}
		return users[i] < users[j]
	})
	if n > len(users) {
		n = len(users)
	}
	return users[:n]
}
