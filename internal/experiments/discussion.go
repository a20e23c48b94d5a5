package experiments

import (
	"fmt"
	"math"
	"net/http/httptest"
	"time"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/crawler"
	"darkcrowd/internal/forum"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/tz"
)

// The §VII Discussion experiments. The paper discusses three
// countermeasures a forum or its crowd could deploy; these experiments
// quantify each claim.

// DiscussionDelay tests the claim that randomly delaying displayed
// timestamps only defeats the methodology when the delay is "of at least a
// few hours": a known German crowd is scraped from forums with increasing
// timestamp jitter and the placement error is tracked.
func (l *Lab) DiscussionDelay() (*Result, error) {
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	de, err := tz.ByCode("de")
	if err != nil {
		return nil, err
	}
	crowd, err := synth.GenerateCrowd(l.cfg.Seed+701, synth.CrowdConfig{
		Name:   "delay-crowd",
		Groups: []synth.Group{{Region: de, Users: 80, PostsPerUser: 100}},
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Title: "§VII — random timestamp delay as a countermeasure",
		Paper: "\"to be effective, the random delay must be of at least a few hours\"",
	}
	type sweep struct {
		jitter time.Duration
		err    float64
		sigma  float64
	}
	var rows []sweep
	for _, jitter := range []time.Duration{0, time.Hour, 3 * time.Hour, 6 * time.Hour, 12 * time.Hour} {
		f := forum.New(forum.Config{
			Name:            "delay-forum",
			TimestampJitter: jitter,
			PageSize:        50,
		})
		if err := f.ImportCrowd(crowd, forum.ImportOptions{}); err != nil {
			return nil, err
		}
		srv := httptest.NewServer(f.Handler())
		c := &crawler.Crawler{BaseURL: srv.URL}
		scraped, err := c.Scrape("delayed")
		srv.Close()
		if err != nil {
			return nil, err
		}
		profiles, err := profile.BuildUserProfiles(scraped.Dataset, l.buildOptions())
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
		// Placement error: distance of the fitted centre from the truth
		// (German crowds legitimately drift up to +1 with DST).
		errZones := math.Abs(fit.PeakOffset - 1.5)
		rows = append(rows, sweep{jitter, errZones, fit.Gaussian.Sigma})
		res.Lines = append(res.Lines, fmt.Sprintf(
			"  jitter +/-%-4s -> fitted centre UTC%+.2f (error %.2f zones), sigma %.2f",
			jitter, fit.PeakOffset, errZones, fit.Gaussian.Sigma))
	}
	// Claim check: small jitter (<= 1h) leaves the placement essentially
	// intact; large jitter (>= 6h) visibly degrades it (centre error or
	// blow-up of the fitted spread).
	small := rows[1]
	large := rows[4]
	smallIntact := small.err < 1.0
	largeDegraded := large.sigma > 2*rows[0].sigma || large.err > 1.0
	res.Measured = fmt.Sprintf("1h jitter: %.2f zones error; 12h jitter: %.2f zones error, sigma %.2f (x%.1f)",
		small.err, large.err, large.sigma, large.sigma/rows[0].sigma)
	res.Pass = smallIntact && largeDegraded
	return res, nil
}

// DiscussionAdversary tests the coordinated-crowd scenario: "What if the
// crowd coordinates and users deliberately post with a profile of a
// different region?" The paper assumes this away as impractical; the
// experiment confirms that *if* a crowd managed it, the methodology would
// place them at the pretended zone — the attack model matters.
func (l *Lab) DiscussionAdversary() (*Result, error) {
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	de, err := tz.ByCode("de")
	if err != nil {
		return nil, err
	}
	res := &Result{
		Title: "§VII — a coordinated crowd posting with a shifted profile",
		Paper: "\"coordinating the behavior of hundreds of anonymous users can be very hard\" — but if done, the method follows the behaviour, not the truth",
	}
	// A German crowd (UTC+1) shifting every posting 8 hours later in the
	// local day. Posting later in the day is what a crowd 8 zones further
	// *west* looks like, so the crowd masquerades as UTC-7 (roughly the
	// US Mountain zone).
	pretend := 8.0
	crowd, err := synth.GenerateCrowd(l.cfg.Seed+702, synth.CrowdConfig{
		Name: "adversary-crowd",
		Groups: []synth.Group{{
			Region:          de,
			Users:           80,
			PostsPerUser:    100,
			DeliberateShift: pretend,
		}},
	})
	if err != nil {
		return nil, err
	}
	profiles, err := profile.BuildUserProfiles(crowd, l.buildOptions())
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
	res.Lines = append(res.Lines, placementChart(placement.Histogram)...)
	res.Lines = append(res.Lines, fmt.Sprintf(
		"  true region: Germany (UTC+1); coordinated shift: +%.0fh; fitted centre: UTC%+.2f",
		pretend, fit.PeakOffset))
	// The crowd should appear near UTC-7 (+1 true offset, -8 apparent
	// displacement), i.e. the deception works under perfect coordination.
	wantApparent := 1.5 - pretend // +0.5 for the DST-season average
	errZones := math.Abs(fit.PeakOffset - wantApparent)
	res.Measured = fmt.Sprintf("crowd placed at UTC%+.2f (apparent target UTC%+.1f)", fit.PeakOffset, wantApparent)
	res.Pass = errZones <= 1.6
	return res, nil
}

// DiscussionMonitor tests the no-timestamps countermeasure: the forum
// hides every timestamp, and the observer falls back to monitoring —
// sweeping the forum on an interval and timestamping new posts with their
// own clock (§VII: "it is enough to monitor the forum, see when posts are
// made and timestamp them ourselves").
func (l *Lab) DiscussionMonitor() (*Result, error) {
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	it, err := tz.ByCode("it")
	if err != nil {
		return nil, err
	}
	// Heavy posters: §VII notes "one might need to monitor a sufficiently
	// large number of days ... to collect 30 post per user or more"; with
	// a ~3-month observation window, heavy users provide that.
	crowd, err := synth.GenerateCrowd(l.cfg.Seed+703, synth.CrowdConfig{
		Name:   "monitor-crowd",
		Groups: []synth.Group{{Region: it, Users: 30, PostsPerUser: 700}},
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Title: "§VII — forum without timestamps, defeated by monitoring",
		Paper: "\"it is enough to monitor the forum, see when posts are made and timestamp them ourselves\"",
	}

	// The forum hides timestamps; Scrape must refuse.
	f := forum.New(forum.Config{Name: "hidden-times", HideTimestamps: true, PageSize: 200})
	for _, u := range crowd.Users() {
		if _, err := f.Register(u); err != nil {
			return nil, err
		}
	}
	board, err := f.AddBoard("Main", "the only discussion board")
	if err != nil {
		return nil, err
	}
	threads := make([]int, 0, 2)
	for i := 0; i < 2; i++ {
		th, err := f.NewThread(board.ID, fmt.Sprintf("discussion #%d", i+1))
		if err != nil {
			return nil, err
		}
		threads = append(threads, th.ID)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	c := &crawler.Crawler{BaseURL: srv.URL}
	if _, err := c.Scrape("refused"); err == nil {
		return nil, fmt.Errorf("scrape of a timestamp-less forum unexpectedly succeeded")
	}
	res.Lines = append(res.Lines, "  direct scrape refused: forum renders no timestamps")

	// Monitor mode: replay the crowd's posts into the forum in hourly
	// batches of simulated time, sweeping after each batch. The monitor's
	// own clock supplies the timestamps.
	replay := crowd.SortedByTime()
	var simNow time.Time
	monitor := crawler.NewMonitor(c, "monitored")
	monitor.Clock = func() time.Time { return simNow }

	// Baseline sweep over the pre-existing (empty) forum.
	first, last, ok := replay.TimeRange()
	if !ok {
		return nil, fmt.Errorf("empty replay crowd")
	}
	simNow = first
	if _, err := monitor.Poll(); err != nil {
		return nil, err
	}

	// Hourly sweeps over a ~2-month observation window; sweeping mid-hour
	// keeps each observation in the same hour bucket as the true posting
	// time, so hour-of-day profiles survive intact.
	windowEnd := first.AddDate(0, 2, 0)
	if windowEnd.After(last) {
		windowEnd = last
	}
	idx := 0
	observed := 0
	for t := first; t.Before(windowEnd); t = t.Add(time.Hour) {
		for idx < replay.NumPosts() && replay.Post(idx).Time.Before(t.Add(time.Hour)) {
			p := replay.Post(idx)
			if !p.Time.Before(t) {
				if _, err := f.PostAt(threads[idx%len(threads)], p.UserID, "replayed", p.Time); err != nil {
					return nil, err
				}
			}
			idx++
		}
		simNow = t.Add(30 * time.Minute)
		n, err := monitor.Poll()
		if err != nil {
			return nil, err
		}
		observed += n
	}
	res.Lines = append(res.Lines, fmt.Sprintf(
		"  monitored %d hourly sweeps over ~2 months, observed %d posts", monitor.Polls(), observed))

	// Geolocate from the monitored dataset (30-post threshold as usual —
	// heavy users clear it within the window).
	profiles, err := profile.BuildUserProfiles(monitor.Dataset(), l.buildOptions())
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
	res.Lines = append(res.Lines, fmt.Sprintf(
		"  %d users profiled from observation times alone; fitted centre UTC%+.2f (truth: Italy, UTC+1/+2)",
		len(profiles), fit.PeakOffset))
	res.Measured = fmt.Sprintf("monitored crowd placed at UTC%+.2f with %d users", fit.PeakOffset, len(profiles))
	res.Pass = len(profiles) >= 20 && fit.PeakOffset > 0.2 && fit.PeakOffset < 3.0
	return res, nil
}
