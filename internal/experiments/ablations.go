package experiments

import (
	"fmt"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/tz"
)

// Ablation benches for the design choices DESIGN.md calls out. These have
// no counterpart figure in the paper; they quantify why the methodology is
// built the way it is.

// placementAccuracy measures the fraction of users of a labelled dataset
// placed within one zone of their region's standard offset.
func (l *Lab) placementAccuracy(dist geoloc.DistanceKind) (float64, int, error) {
	gen, err := l.Generic()
	if err != nil {
		return 0, 0, err
	}
	ds, err := l.Twitter()
	if err != nil {
		return 0, 0, err
	}
	profiles, err := profile.BuildUserProfiles(ds, l.buildOptions())
	if err != nil {
		return 0, 0, err
	}
	placeOpts := l.placeOptions()
	placeOpts.Distance = dist
	placement, err := geoloc.PlaceUsers(profiles, gen.Generic, placeOpts)
	if err != nil {
		return 0, 0, err
	}
	correct, total := 0, 0
	for user, placed := range placement.Assignments {
		code, ok := ds.GroundTruth[user]
		if !ok {
			continue
		}
		region, err := tz.ByCode(code)
		if err != nil {
			continue
		}
		total++
		// DST-observing regions legitimately place one zone east for a
		// large part of the year; accept offset..offset+1 +/- 1.
		d := placed.CircularDistance(region.StandardOffset)
		dDST := placed.CircularDistance((region.StandardOffset + 1).Normalize())
		if d <= 1 || (region.DST.Observed && dDST <= 1) {
			correct++
		}
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("no labelled users to score")
	}
	return float64(correct) / float64(total), total, nil
}

// AblateDistance compares circular versus linear EMD for placement.
func (l *Lab) AblateDistance() (*Result, error) {
	res := &Result{
		Title: "Ablation — circular vs linear EMD as the placement distance",
		Paper: "(design choice: profiles live on the 24-hour circle, so the transport metric should wrap)",
	}
	circ, total, err := l.placementAccuracy(geoloc.DistanceCircularEMD)
	if err != nil {
		return nil, err
	}
	lin, _, err := l.placementAccuracy(geoloc.DistanceLinearEMD)
	if err != nil {
		return nil, err
	}
	res.Lines = append(res.Lines,
		fmt.Sprintf("  circular EMD: %.1f%% of %d users within +/-1 zone", circ*100, total),
		fmt.Sprintf("  linear EMD:   %.1f%% of %d users within +/-1 zone", lin*100, total))
	res.Measured = fmt.Sprintf("circular %.1f%% vs linear %.1f%%", circ*100, lin*100)
	// The circular metric must not lose to the linear one; it usually
	// wins because crowds near the +/-12 seam otherwise pay a phantom
	// transport cost.
	res.Pass = circ >= lin-0.01 && circ > 0.7
	return res, nil
}

// AblatePolish measures the effect of flat-profile polishing on a
// bot-contaminated crowd.
func (l *Lab) AblatePolish() (*Result, error) {
	res := &Result{
		Title: "Ablation — flat-profile polishing on vs off (bot-contaminated crowd)",
		Paper: "(design choice §IV-C: bots otherwise contaminate placements)",
	}
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	de, err := tz.ByCode("de")
	if err != nil {
		return nil, err
	}
	ds, err := synth.GenerateCrowd(l.cfg.Seed+77, synth.CrowdConfig{
		Name: "ablate-polish",
		Groups: []synth.Group{
			{Region: de, Users: 60, PostsPerUser: 120},
			{Region: de, Users: 20, PostsPerUser: 240, Kind: synth.KindBot, IDPrefix: "bot"},
		},
	})
	if err != nil {
		return nil, err
	}
	profiles, err := profile.BuildUserProfiles(ds, l.buildOptions())
	if err != nil {
		return nil, err
	}

	score := func(placement *geoloc.Placement) (float64, error) {
		fit, err := geoloc.FitSingle(placement)
		if err != nil {
			return 0, err
		}
		return fit.AvgDistance, nil
	}

	raw, err := geoloc.PlaceUsers(profiles, gen.Generic, l.placeOptions())
	if err != nil {
		return nil, err
	}
	rawDist, err := score(raw)
	if err != nil {
		return nil, err
	}
	polished, geo, err := l.locate(profiles, gen.Generic, false)
	if err != nil {
		return nil, err
	}
	cleanDist, err := score(geo.Placement)
	if err != nil {
		return nil, err
	}
	res.Lines = append(res.Lines,
		fmt.Sprintf("  without polishing: %d users, Gaussian fit avg distance %.4f", len(profiles), rawDist),
		fmt.Sprintf("  with polishing:    %d users (removed %d), avg distance %.4f",
			len(polished.Kept), len(polished.Removed), cleanDist))
	res.Measured = fmt.Sprintf("fit avg distance %.4f -> %.4f after polishing", rawDist, cleanDist)
	res.Pass = cleanDist <= rawDist+1e-9 && len(polished.Removed) >= 10
	return res, nil
}

// AblateThreshold validates the paper's 30-post active-user threshold:
// on a heavy-tailed crowd, users below the threshold place markedly worse
// than users above it, which is why "users with just a handful of posts
// ... do not give enough information to profile their behavior" (§IV).
func (l *Lab) AblateThreshold() (*Result, error) {
	res := &Result{
		Title: "Ablation — placement accuracy below vs above the 30-post threshold",
		Paper: "\"users with just a handful of posts ... do not give enough information to profile their behavior\" (§IV)",
	}
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	jp, err := tz.ByCode("jp")
	if err != nil {
		return nil, err
	}
	// Heavy-tailed volume: many users land well below 30 posts.
	ds, err := synth.GenerateCrowd(l.cfg.Seed+88, synth.CrowdConfig{
		Name:        "ablate-threshold",
		Groups:      []synth.Group{{Region: jp, Users: 250, PostsPerUser: 28}},
		VolumeSigma: 1.1,
	})
	if err != nil {
		return nil, err
	}
	buildOpts := l.buildOptions()
	buildOpts.MinPosts = 5
	profiles, err := profile.BuildUserProfiles(ds, buildOpts)
	if err != nil {
		return nil, err
	}
	placement, err := geoloc.PlaceUsers(profiles, gen.Generic, l.placeOptions())
	if err != nil {
		return nil, err
	}
	counts := ds.PostCounts()
	accFor := func(low, high int) (float64, int) {
		correct, total := 0, 0
		for user, placed := range placement.Assignments {
			n := counts[user]
			if n < low || n >= high {
				continue
			}
			total++
			if placed.CircularDistance(jp.StandardOffset) <= 1 {
				correct++
			}
		}
		if total == 0 {
			return 0, 0
		}
		return float64(correct) / float64(total), total
	}
	lowAcc, lowN := accFor(5, profile.DefaultMinPosts)
	highAcc, highN := accFor(profile.DefaultMinPosts, 1<<30)
	res.Lines = append(res.Lines,
		fmt.Sprintf("  users with 5-29 posts:  %.1f%% within +/-1 zone (%d users)", lowAcc*100, lowN),
		fmt.Sprintf("  users with >=30 posts:  %.1f%% within +/-1 zone (%d users)", highAcc*100, highN))
	res.Measured = fmt.Sprintf("below threshold %.1f%% vs above %.1f%%", lowAcc*100, highAcc*100)
	res.Pass = lowN >= 20 && highN >= 20 && highAcc > lowAcc
	return res, nil
}

// AblateReference compares the two ways of building the 24 time-zone
// reference profiles: the paper's choice — one generic profile shifted per
// zone ("we can easily build the profile for every region ... by just
// shifting the generic profile") — against using each region's own
// measured profile where one exists. If shifting loses little accuracy,
// the generic profile is justified (and it covers zones with no labelled
// data at all, which measured profiles cannot).
func (l *Lab) AblateReference() (*Result, error) {
	res := &Result{
		Title: "Ablation — shifted-generic reference profiles vs measured per-region profiles",
		Paper: "\"we can easily build the profile for every region, even those not present in Table I, by just shifting the generic profile\"",
	}
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	ds, err := l.Twitter()
	if err != nil {
		return nil, err
	}
	profiles, err := profile.BuildUserProfiles(ds, l.buildOptions())
	if err != nil {
		return nil, err
	}

	// (a) Generic-based placement accuracy (within one zone of the truth,
	// allowing the DST drift).
	genericAcc, total, err := l.placementAccuracy(geoloc.DistanceCircularEMD)
	if err != nil {
		return nil, err
	}

	// (b) Measured-profile placement: classify each user to the Table I
	// region whose UTC-frame measured profile is EMD-closest, then score
	// by the region's offset.
	type refProfile struct {
		code    string
		region  tz.Region
		utcProf profile.Profile
	}
	var refs []refProfile
	for _, region := range tz.TableIRegions() {
		rp, ok := gen.PerRegion[region.Code]
		if !ok {
			continue
		}
		refs = append(refs, refProfile{
			code:   region.Code,
			region: region,
			// Measured profiles are local-frame; move to the UTC frame
			// at the region's standard offset.
			utcProf: profile.ZoneProfile(rp, region.StandardOffset),
		})
	}
	correct, scored := 0, 0
	for user, p := range profiles {
		truthCode, ok := ds.GroundTruth[user]
		if !ok {
			continue
		}
		truthRegion, err := tz.ByCode(truthCode)
		if err != nil {
			continue
		}
		best := -1
		bestDist := 0.0
		for i, ref := range refs {
			d, err := p.EMD(ref.utcProf)
			if err != nil {
				return nil, err
			}
			if best == -1 || d < bestDist {
				best = i
				bestDist = d
			}
		}
		if best == -1 {
			continue
		}
		scored++
		placed := refs[best].region.StandardOffset
		d := placed.CircularDistance(truthRegion.StandardOffset)
		dDST := placed.CircularDistance((truthRegion.StandardOffset + 1).Normalize())
		if d <= 1 || (truthRegion.DST.Observed && dDST <= 1) {
			correct++
		}
	}
	measuredAcc := float64(correct) / float64(scored)
	res.Lines = append(res.Lines,
		fmt.Sprintf("  shifted generic profiles: %.1f%% of %d users within +/-1 zone", genericAcc*100, total),
		fmt.Sprintf("  measured region profiles: %.1f%% of %d users within +/-1 zone", measuredAcc*100, scored),
		"  (measured profiles only exist for the 14 labelled regions; the",
		"   generic profile covers all 24 zones)")
	res.Measured = fmt.Sprintf("generic %.1f%% vs measured %.1f%%", genericAcc*100, measuredAcc*100)
	// The generic approach must stay within a few points of the measured
	// one — that closeness is what licenses zone coverage by shifting.
	res.Pass = genericAcc >= measuredAcc-0.05
	return res, nil
}

// AblateCrowdSize measures how many users a crowd needs before the
// single-Gaussian fit pins the right zone — the reproduction's analogue of
// a sample-size sensitivity analysis. The paper's smallest forum (IDC) has
// 52 users; this shows why that is still enough.
func (l *Lab) AblateCrowdSize() (*Result, error) {
	res := &Result{
		Title: "Ablation — placement stability vs crowd size",
		Paper: "(the paper's forums range from 52 to 638 users; how small can a crowd be?)",
	}
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	jp, err := tz.ByCode("jp")
	if err != nil {
		return nil, err
	}
	pass := true
	for _, users := range []int{10, 25, 52, 100, 200} {
		ds, err := synth.GenerateCrowd(l.cfg.Seed+int64(users), synth.CrowdConfig{
			Name:   "size-sweep",
			Groups: []synth.Group{{Region: jp, Users: users, PostsPerUser: 80}},
		})
		if err != nil {
			return nil, err
		}
		profiles, err := profile.BuildUserProfiles(ds, l.buildOptions())
		if err != nil {
			return nil, err
		}
		placement, err := geoloc.PlaceUsers(profiles, gen.Generic, l.placeOptions())
		if err != nil {
			return nil, err
		}
		fit, err := geoloc.FitSingle(placement)
		if err != nil {
			return nil, err
		}
		errZones := fit.PeakOffset - 9
		if errZones < 0 {
			errZones = -errZones
		}
		res.Lines = append(res.Lines, fmt.Sprintf(
			"  %3d users -> fitted centre UTC%+.2f (error %.2f zones), sigma %.2f",
			users, fit.PeakOffset, errZones, fit.Gaussian.Sigma))
		// From the IDC-sized crowd up, the centre must hold within a zone.
		if users >= 52 && errZones > 1.0 {
			pass = false
		}
	}
	res.Measured = "see per-size rows; paper-scale crowds (>=52 users) stay within one zone"
	res.Pass = pass
	return res, nil
}
