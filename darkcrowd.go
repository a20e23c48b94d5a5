// Package darkcrowd is the public API of the reproduction of "Time-Zone
// Geolocation of Crowds in the Dark Web" (La Morgia, Mei, Raponi, Stefa —
// IEEE ICDCS 2018).
//
// The library geolocates the *crowd* of an anonymous forum — not single
// users — from nothing but the timestamps of its posts:
//
//  1. Build a 24-hour activity profile per user (Eq. 1 of the paper) and a
//     generic reference profile from a labelled dataset (Eq. 2).
//  2. Polish the crowd: drop casual users (fewer than 30 posts) and
//     flat-profile bots (§IV-C).
//  3. Place every user on the time zone whose reference profile is closest
//     under the circular Earth Mover's Distance (§IV-A).
//  4. Fit the placement histogram with a Gaussian mixture (EM + BIC); the
//     component means are the time zones the crowd lives in (§IV-B).
//  5. Optionally, tell northern- from southern-hemisphere users by their
//     daylight-saving-time signature (§V-F).
//
// Quick start:
//
//	labelled, _ := darkcrowd.SyntheticTwitterDataset(1, 20)
//	ref, _ := darkcrowd.BuildReference(labelled)
//	report, _ := darkcrowd.GeolocateCrowd(anonymousPosts, ref, darkcrowd.Options{})
//	for _, c := range report.Components {
//	    fmt.Println(c) // "68% of the crowd at UTC+1 (...)"
//	}
//
// The heavy lifting lives in the internal packages (internal/core/...,
// internal/stats, internal/tz); this package wires them into the workflow
// above. The substrates — the simulated Tor network (internal/onion), the
// forum engine (internal/forum), the scraper (internal/crawler) and the
// behavioural crowd generator (internal/synth) — are exercised by the
// cmd/ binaries, the examples/ programs and the benchmark harness.
package darkcrowd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// Post is one activity event: a user posted at a UTC instant.
type Post = trace.Post

// Dataset is a named activity trace with optional ground-truth labels.
// Its posts are read with NumPosts and Post.
type Dataset = trace.Dataset

// NewDataset builds a dataset from (user, UTC time) rows, keeping their
// order.
func NewDataset(name string, posts []Post) *Dataset { return trace.NewDataset(name, posts) }

// Profile is a 24-bin activity distribution (Eq. 1/2 of the paper).
type Profile = profile.Profile

// Component is one uncovered region of a crowd: its share, its UTC offset
// and the spread of its placement.
type Component = geoloc.Component

// Hemisphere is the §V-F DST-based ruling for a user.
type Hemisphere = tz.Hemisphere

// Hemisphere values.
const (
	HemisphereNone  = tz.HemisphereNone
	HemisphereNorth = tz.HemisphereNorth
	HemisphereSouth = tz.HemisphereSouth
)

// Reference is the reusable output of BuildReference: the generic
// local-frame activity profile and the per-region profiles it was built
// from.
type Reference struct {
	// Generic is the local-frame reference pattern; shifted copies of it
	// are the 24 time-zone profiles.
	Generic Profile
	// PerRegion maps region codes to their measured population profiles.
	PerRegion map[string]Profile
	// ActiveUsers counts threshold-surviving users per region (Table I).
	ActiveUsers map[string]int
	// Origin names a reproducible build of the reference, such as
	// "synth:seed=2018,scale=40" for `darkcrowd reference`; empty for a
	// reference built from other labelled data. A report made from a saved
	// reference names it by its origin, or by its content when it has none.
	Origin string `json:"origin,omitempty"`
}

// Options tunes GeolocateCrowd.
type Options struct {
	// MinPosts is the active-user threshold (default 30, the paper's
	// choice).
	MinPosts int
	// SkipPolish disables flat-profile (bot) removal.
	SkipPolish bool
	// MaxComponents bounds the mixture search (default 4).
	MaxComponents int
	// Parallelism is the worker count for the profile-building, placement
	// and EM stages: 0 uses every core (GOMAXPROCS), 1 forces the
	// sequential path. The report is bit-for-bit identical for every
	// setting — workers fill disjoint shards of index-addressed buffers
	// and all merging happens in deterministic user order.
	Parallelism int
	// Context, when non-nil, cancels a long geolocation run.
	Context context.Context
	// Obs, when non-nil, receives pipeline metrics and stage spans
	// (profile-build, polish, placement, em-select) — see internal/obs.
	// Observation only: the report is bit-for-bit identical with or
	// without it.
	Obs *obs.Observer
}

// Report is the outcome of geolocating a crowd.
type Report struct {
	// Components lists the uncovered regions, heaviest first.
	Components []Component
	// PlacementHistogram is the fraction of the crowd per time zone,
	// indexed by zone (index 0 = UTC-11 ... index 23 = UTC+12).
	PlacementHistogram []float64
	// ActiveUsers is the number of users that survived polishing.
	ActiveUsers int
	// RemovedUsers lists users dropped as flat profiles.
	RemovedUsers []string
	// AvgFitDistance and StdFitDistance are the Table II fit-quality
	// metrics.
	AvgFitDistance, StdFitDistance float64
}

// BuildReference builds the generic reference profile from a labelled
// dataset (users mapped to region codes from the built-in catalogue; see
// RegionCodes). The per-region profile builds run on one worker per core;
// the result is deterministic regardless.
func BuildReference(labelled *Dataset) (*Reference, error) {
	res, err := profile.BuildGeneric(labelled, profile.GenericOptions{})
	if err != nil {
		return nil, fmt.Errorf("darkcrowd: build reference: %w", err)
	}
	return &Reference{
		Generic:     res.Generic,
		PerRegion:   res.PerRegion,
		ActiveUsers: res.ActiveUsers,
	}, nil
}

// GeolocateCrowd runs the full pipeline on an anonymous crowd's posts
// (timestamps must be UTC-normalized, e.g. by the crawler's offset probe).
func GeolocateCrowd(posts []Post, ref *Reference, opts Options) (*Report, error) {
	if ref == nil {
		return nil, fmt.Errorf("darkcrowd: nil reference")
	}
	ds := NewDataset("crowd", posts)
	profiles, err := profile.BuildUserProfiles(ds, profile.BuildOptions{
		MinPosts:    opts.MinPosts,
		Parallelism: opts.Parallelism,
		Context:     opts.Context,
		Obs:         opts.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("darkcrowd: build crowd profiles: %w", err)
	}
	polished, geo, err := geoloc.LocateCrowd(profiles, ref.Generic, geoloc.LocateOptions{
		SkipPolish:    opts.SkipPolish,
		MaxComponents: opts.MaxComponents,
		Parallelism:   opts.Parallelism,
		Context:       opts.Context,
		Obs:           opts.Obs,
	})
	if errors.Is(err, geoloc.ErrNoProfiles) {
		return nil, fmt.Errorf("darkcrowd: no users survive polishing")
	}
	if err != nil {
		return nil, fmt.Errorf("darkcrowd: geolocate: %w", err)
	}
	report := &Report{RemovedUsers: polished.Removed}
	report.Components = geo.Components
	report.PlacementHistogram = geo.Placement.Histogram
	report.ActiveUsers = len(polished.Kept)
	report.AvgFitDistance = geo.AvgDistance
	report.StdFitDistance = geo.StdDistance
	return report, nil
}

// ClassifyHemisphere runs the §V-F DST test on one user's posts.
func ClassifyHemisphere(posts []Post) (Hemisphere, error) {
	verdict, err := geoloc.ClassifyHemisphere(posts, geoloc.HemisphereOptions{})
	if err != nil {
		return HemisphereNone, fmt.Errorf("darkcrowd: classify hemisphere: %w", err)
	}
	return verdict.Hemisphere, nil
}

// SyntheticTwitterDataset generates the labelled stand-in for the paper's
// Twitter dataset: the 14 Table I regions with the paper's active-user
// counts divided by scale. Deterministic under the seed.
func SyntheticTwitterDataset(seed int64, scale int) (*Dataset, error) {
	ds, err := synth.TwitterDataset(seed, synth.TwitterOptions{Scale: scale})
	if err != nil {
		return nil, fmt.Errorf("darkcrowd: synthetic Twitter dataset: %w", err)
	}
	return ds, nil
}

// SyntheticCrowd generates an anonymous crowd living in the given region
// codes with the given per-region user counts, posting over one year.
// Deterministic under the seed.
func SyntheticCrowd(seed int64, users map[string]int, postsPerUser float64) (*Dataset, error) {
	var groups []synth.Group
	for _, code := range sortedCodes(users) {
		region, err := tz.ByCode(code)
		if err != nil {
			return nil, fmt.Errorf("darkcrowd: synthetic crowd: %w", err)
		}
		groups = append(groups, synth.Group{
			Region:       region,
			Users:        users[code],
			PostsPerUser: postsPerUser,
		})
	}
	ds, err := synth.GenerateCrowd(seed, synth.CrowdConfig{Name: "synthetic-crowd", Groups: groups})
	if err != nil {
		return nil, fmt.Errorf("darkcrowd: synthetic crowd: %w", err)
	}
	return ds, nil
}

// RegionCodes lists the region codes of the built-in catalogue with their
// display names and standard offsets.
func RegionCodes() map[string]string {
	out := make(map[string]string)
	for _, r := range tz.Catalogue() {
		out[r.Code] = fmt.Sprintf("%s (%s)", r.Name, r.StandardOffset)
	}
	return out
}

// OffsetOfZoneIndex translates a PlacementHistogram index to its UTC
// offset in hours.
func OffsetOfZoneIndex(index int) int {
	return int(profile.OffsetOf(index))
}

// ServerOffset measures a forum's displayed-clock offset given a displayed
// timestamp of a post made at the given true UTC instant — the Welcome-
// thread probe from §V, usable directly when you control the probe post.
func ServerOffset(displayed, trueUTC time.Time) time.Duration {
	t := trueUTC.UTC()
	wall := time.Date(t.Year(), t.Month(), t.Day(), t.Hour(), t.Minute(), t.Second(), 0, time.UTC)
	return displayed.Sub(wall).Round(time.Minute)
}

func sortedCodes(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteJSON serializes the reference so later runs can skip rebuilding it
// from the labelled dataset.
func (r *Reference) WriteJSON(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(r); err != nil {
		return fmt.Errorf("darkcrowd: encode reference: %w", err)
	}
	return nil
}

// ReadReference loads a reference written by WriteJSON.
func ReadReference(r io.Reader) (*Reference, error) {
	var out Reference
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("darkcrowd: decode reference: %w", err)
	}
	if out.Generic.Sum() == 0 {
		return nil, fmt.Errorf("darkcrowd: reference has an empty generic profile")
	}
	return &out, nil
}
