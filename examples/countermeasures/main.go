// Countermeasures example: the three defences discussed in §VII of the
// paper, and what each actually buys a forum.
//
//  1. Random timestamp delay — only works if it is "at least a few hours";
//     the example sweeps the jitter and shows the placement degrade.
//
//  2. Removing timestamps — defeated by monitoring the forum and
//     timestamping new posts with the observer's own clock.
//
//  3. A coordinated crowd faking another region's rhythm — works in
//     principle, but requires every user to shift their life by hours.
//
//     go run ./examples/countermeasures
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/crawler"
	"darkcrowd/internal/forum"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/tz"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Shared reference.
	twitter, err := synth.TwitterDataset(1, synth.TwitterOptions{Scale: 60})
	if err != nil {
		return err
	}
	gen, err := profile.BuildGeneric(twitter, profile.GenericOptions{})
	if err != nil {
		return err
	}
	de, err := tz.ByCode("de")
	if err != nil {
		return err
	}
	crowd, err := synth.GenerateCrowd(11, synth.CrowdConfig{
		Name:   "victim-crowd",
		Groups: []synth.Group{{Region: de, Users: 50, PostsPerUser: 100}},
	})
	if err != nil {
		return err
	}

	// 1. Timestamp jitter sweep.
	fmt.Println("=== countermeasure 1: random timestamp delay")
	for _, jitter := range []time.Duration{0, time.Hour, 6 * time.Hour, 12 * time.Hour} {
		f := forum.New(forum.Config{Name: "jittered", TimestampJitter: jitter, PageSize: 50})
		if err := f.ImportCrowd(crowd, forum.ImportOptions{}); err != nil {
			return err
		}
		srv := httptest.NewServer(f.Handler())
		c := &crawler.Crawler{BaseURL: srv.URL}
		res, err := c.Scrape("jittered")
		srv.Close()
		if err != nil {
			return err
		}
		profiles, err := profile.BuildUserProfiles(res.Dataset, profile.BuildOptions{})
		if err != nil {
			return err
		}
		placement, err := geoloc.PlaceUsers(profiles, gen.Generic, geoloc.PlaceOptions{})
		if err != nil {
			return err
		}
		fit, err := geoloc.FitSingle(placement)
		if err != nil {
			return err
		}
		fmt.Printf("  jitter +/-%-4v -> crowd (truly German, UTC+1) placed at UTC%+.2f, sigma %.2f\n",
			jitter, fit.PeakOffset, fit.Gaussian.Sigma)
	}

	// 2. Hidden timestamps, defeated by monitoring.
	fmt.Println("\n=== countermeasure 2: no timestamps at all")
	f := forum.New(forum.Config{Name: "hidden", HideTimestamps: true, PageSize: 200})
	for _, u := range crowd.Users() {
		if _, err := f.Register(u); err != nil {
			return err
		}
	}
	board, err := f.AddBoard("Main", "")
	if err != nil {
		return err
	}
	th, err := f.NewThread(board.ID, "talk")
	if err != nil {
		return err
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	c := &crawler.Crawler{BaseURL: srv.URL}
	if _, err := c.Scrape("refused"); err != nil {
		fmt.Println("  direct scrape refused:", err)
	}
	// Replay one month of posts with hourly monitor sweeps.
	replay := crowd.SortedByTime()
	first, _, _ := replay.TimeRange()
	var simNow time.Time
	monitor := crawler.NewMonitor(c, "watched")
	monitor.Clock = func() time.Time { return simNow }
	simNow = first
	if _, err := monitor.Poll(); err != nil {
		return err
	}
	end := first.AddDate(0, 1, 0)
	idx := 0
	for t := first; t.Before(end); t = t.Add(time.Hour) {
		for idx < replay.NumPosts() && replay.Post(idx).Time.Before(t.Add(time.Hour)) {
			p := replay.Post(idx)
			if !p.Time.Before(t) {
				if _, err := f.PostAt(th.ID, p.UserID, "replayed", p.Time); err != nil {
					return err
				}
			}
			idx++
		}
		simNow = t.Add(30 * time.Minute)
		if _, err := monitor.Poll(); err != nil {
			return err
		}
	}
	observed := monitor.Dataset()
	fmt.Printf("  monitored %d sweeps, observed %d posts with our own clock\n",
		monitor.Polls(), observed.NumPosts())
	profiles, err := profile.BuildUserProfiles(observed, profile.BuildOptions{MinPosts: 5})
	if err != nil {
		return err
	}
	placement, err := geoloc.PlaceUsers(profiles, gen.Generic, geoloc.PlaceOptions{})
	if err != nil {
		return err
	}
	fit, err := geoloc.FitSingle(placement)
	if err != nil {
		return err
	}
	fmt.Printf("  geolocation from observation times alone: UTC%+.2f (truth: UTC+1/+2)\n", fit.PeakOffset)

	// 3. Coordinated deception.
	fmt.Println("\n=== countermeasure 3: the crowd coordinates a fake rhythm")
	faked, err := synth.GenerateCrowd(12, synth.CrowdConfig{
		Name: "fake-rhythm",
		Groups: []synth.Group{{
			Region: de, Users: 50, PostsPerUser: 100,
			DeliberateShift: 8, // everyone posts 8 hours later
		}},
	})
	if err != nil {
		return err
	}
	profiles, err = profile.BuildUserProfiles(faked, profile.BuildOptions{})
	if err != nil {
		return err
	}
	placement, err = geoloc.PlaceUsers(profiles, gen.Generic, geoloc.PlaceOptions{})
	if err != nil {
		return err
	}
	fit, err = geoloc.FitSingle(placement)
	if err != nil {
		return err
	}
	fmt.Printf("  German crowd, everyone shifted +8h -> placed at UTC%+.2f (deception works,\n", fit.PeakOffset)
	fmt.Println("  but every member had to move their whole waking rhythm by 8 hours)")
	return nil
}
