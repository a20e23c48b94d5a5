// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV-V): Table I (dataset census), Figures 1-7 and Table II
// (methodology validation on the Twitter stand-in), Figures 8-13 (the five
// Dark Web forums, scraped end to end from the simulated hidden services),
// and the §V-F hemisphere analysis. Each experiment produces a Result with
// the paper's claim, the measured outcome, a pass/fail shape check and the
// full rendered rows/series.
package experiments

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/crawler"
	"darkcrowd/internal/forum"
	"darkcrowd/internal/onion"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
	"darkcrowd/internal/viz"
)

// Config tunes a Lab.
type Config struct {
	// Seed drives all synthetic data generation.
	// Defaults to 2018 (the paper's year).
	Seed int64
	// TwitterScale divides the Table I user counts to bound runtime;
	// 1 reproduces the full 22,576-user dataset. Defaults to 20.
	TwitterScale int
	// ForumScale divides the per-forum user counts; 1 reproduces the
	// paper's census exactly. Defaults to 1.
	ForumScale int
	// UseOnion routes every forum scrape through the simulated Tor
	// network (hidden service + three-hop circuits) instead of a local
	// HTTP listener. Slower, but exercises the paper's full collection
	// path.
	UseOnion bool
	// Parallelism is the worker count handed to the profile-building,
	// placement and EM stages of every experiment: 0 uses every core
	// (GOMAXPROCS), 1 forces the sequential paths. Every table and figure
	// is bit-identical across settings.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2018
	}
	if c.TwitterScale <= 0 {
		c.TwitterScale = 20
	}
	if c.ForumScale <= 0 {
		c.ForumScale = 1
	}
	return c
}

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment identifier ("table1", "fig3", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Paper states what the paper reports.
	Paper string
	// Measured states what this reproduction measured.
	Measured string
	// Pass reports whether the paper's qualitative shape held.
	Pass bool
	// Lines is the full rendered output.
	Lines []string
	// Charts carries renderable figure data; cmd/benchgen -svg writes
	// each as an SVG file.
	Charts []NamedChart
	// Elapsed is the experiment wall time.
	Elapsed time.Duration
}

// NamedChart pairs a chart with a filename stem.
type NamedChart struct {
	Name  string
	Chart viz.BarChart
}

// Lab runs experiments with shared, lazily computed state.
type Lab struct {
	cfg Config

	mu sync.Mutex

	twitterDS  *trace.Dataset
	genericRes *profile.GenericResult

	// placements caches single-country placement histograms by region
	// code.
	placements map[string]*geoloc.Placement
	// forumGeo caches the full pipeline output per forum name.
	forumGeo map[string]*forumRun
}

// forumRun is the cached outcome of scraping and geolocating one forum.
type forumRun struct {
	spec       synth.ForumSpec
	truth      *trace.Dataset
	scraped    *trace.Dataset
	offset     time.Duration
	population profile.Profile
	geo        *geoloc.Geolocation
	users      int
}

// NewLab creates a Lab.
func NewLab(cfg Config) *Lab {
	return &Lab{
		cfg:        cfg.withDefaults(),
		placements: make(map[string]*geoloc.Placement),
		forumGeo:   make(map[string]*forumRun),
	}
}

// buildOptions is the lab's default profile-building configuration.
func (l *Lab) buildOptions() profile.BuildOptions {
	return profile.BuildOptions{Parallelism: l.cfg.Parallelism}
}

// placeOptions is the lab's default placement configuration.
func (l *Lab) placeOptions() geoloc.PlaceOptions {
	return geoloc.PlaceOptions{Parallelism: l.cfg.Parallelism}
}

// locate runs the crowd-geolocation step with the lab's parallelism.
func (l *Lab) locate(profiles map[string]profile.Profile, generic profile.Profile, skipPolish bool) (*profile.PolishResult, *geoloc.Geolocation, error) {
	return geoloc.LocateCrowd(profiles, generic, geoloc.LocateOptions{
		SkipPolish:  skipPolish,
		Parallelism: l.cfg.Parallelism,
	})
}

// Twitter returns (building once) the synthetic Twitter dataset.
func (l *Lab) Twitter() (*trace.Dataset, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.twitterLocked()
}

func (l *Lab) twitterLocked() (*trace.Dataset, error) {
	if l.twitterDS != nil {
		return l.twitterDS, nil
	}
	ds, err := synth.TwitterDataset(l.cfg.Seed, synth.TwitterOptions{Scale: l.cfg.TwitterScale})
	if err != nil {
		return nil, fmt.Errorf("experiments: build Twitter dataset: %w", err)
	}
	l.twitterDS = ds
	return ds, nil
}

// Generic returns (building once) the generic profile result.
func (l *Lab) Generic() (*profile.GenericResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.genericLocked()
}

func (l *Lab) genericLocked() (*profile.GenericResult, error) {
	if l.genericRes != nil {
		return l.genericRes, nil
	}
	ds, err := l.twitterLocked()
	if err != nil {
		return nil, err
	}
	res, err := profile.BuildGeneric(ds, profile.GenericOptions{Parallelism: l.cfg.Parallelism})
	if err != nil {
		return nil, fmt.Errorf("experiments: build generic profile: %w", err)
	}
	l.genericRes = res
	return res, nil
}

// placementFor returns (building once) the EMD placement of one Twitter
// country crowd against the generic zone profiles.
func (l *Lab) placementFor(code string) (*geoloc.Placement, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, ok := l.placements[code]; ok {
		return p, nil
	}
	gen, err := l.genericLocked()
	if err != nil {
		return nil, err
	}
	ds, err := l.twitterLocked()
	if err != nil {
		return nil, err
	}
	region, err := tz.ByCode(code)
	if err != nil {
		return nil, err
	}
	sub := ds.FilterUsers(func(u string) bool { return ds.GroundTruth[u] == code })
	sub = profile.RemoveHolidays(sub, region)
	profiles, err := profile.BuildUserProfiles(sub, l.buildOptions())
	if err != nil {
		return nil, fmt.Errorf("experiments: profiles for %s: %w", code, err)
	}
	placement, err := geoloc.PlaceUsers(profiles, gen.Generic, l.placeOptions())
	if err != nil {
		return nil, fmt.Errorf("experiments: placement for %s: %w", code, err)
	}
	l.placements[code] = placement
	return placement, nil
}

// runForum executes the full pipeline for one of the five §V forums:
// synthesize the ground-truth crowd, host the forum (optionally as a
// hidden service), scrape it, polish the dataset, geolocate the crowd.
func (l *Lab) runForum(name string) (*forumRun, error) {
	l.mu.Lock()
	if fr, ok := l.forumGeo[name]; ok {
		l.mu.Unlock()
		return fr, nil
	}
	l.mu.Unlock()

	spec, err := synth.ForumSpecByName(name)
	if err != nil {
		return nil, err
	}
	scaled := spec
	if l.cfg.ForumScale > 1 {
		scaled.Users = spec.Users / l.cfg.ForumScale
		if scaled.Users < 20 {
			scaled.Users = 20
		}
		scaled.Posts = spec.Posts / l.cfg.ForumScale
		minPosts := scaled.Users * 50
		if scaled.Posts < minPosts {
			scaled.Posts = minPosts
		}
	}
	truth, err := synth.ForumCrowd(l.cfg.Seed+int64(len(name)), scaled)
	if err != nil {
		return nil, err
	}

	f := forum.New(forum.Config{
		Name:         spec.Name,
		ServerOffset: time.Duration(spec.ServerOffsetHours) * time.Hour,
		PageSize:     50,
	})
	if err := f.ImportCrowd(truth, forum.ImportOptions{}); err != nil {
		return nil, err
	}

	scrape, err := l.scrapeForum(f, spec)
	if err != nil {
		return nil, err
	}

	// Polishing (§IV-C, §V "after the cleaning step").
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	profiles, err := profile.BuildUserProfiles(scrape.Dataset, l.buildOptions())
	if err != nil {
		return nil, err
	}
	polished, geo, err := l.locate(profiles, gen.Generic, false)
	if err != nil {
		return nil, err
	}

	// Population profile of the forum (Fig. 8-style).
	var list []profile.Profile
	for _, id := range profile.SortedUserIDs(polished.Kept) {
		list = append(list, polished.Kept[id])
	}
	population, err := profile.Aggregate(list)
	if err != nil {
		return nil, err
	}
	fr := &forumRun{
		spec:       spec,
		truth:      truth,
		scraped:    scrape.Dataset,
		offset:     scrape.ServerOffset,
		population: population,
		geo:        geo,
		users:      len(polished.Kept),
	}
	l.mu.Lock()
	l.forumGeo[name] = fr
	l.mu.Unlock()
	return fr, nil
}

// scrapeForum hosts the forum and runs the crawler against it, through the
// onion network when configured.
func (l *Lab) scrapeForum(f *forum.Forum, spec synth.ForumSpec) (*crawler.Result, error) {
	if !l.cfg.UseOnion {
		srv := httptest.NewServer(f.Handler())
		defer srv.Close()
		c := &crawler.Crawler{BaseURL: srv.URL}
		return c.Scrape(spec.Name)
	}

	n := onion.NewNetwork(l.cfg.Seed)
	defer n.Close()
	if _, err := n.AddRelays(8); err != nil {
		return nil, err
	}
	svc, err := onion.HostService(n, "host-"+spec.Onion, 2)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	server := newOnionHTTPServer(f, svc)
	defer server.Close()

	torClient, err := onion.NewClient(n, "scraper")
	if err != nil {
		return nil, err
	}
	defer torClient.Close()
	c := &crawler.Crawler{
		HTTPClient: newOnionHTTPClient(torClient),
		BaseURL:    "http://" + svc.Onion(),
	}
	return c.Scrape(spec.Name)
}

// sortedForumNames returns the §V forums in paper order.
func sortedForumNames() []string {
	specs := synth.ForumSpecs()
	out := make([]string, 0, len(specs))
	for _, s := range specs {
		out = append(out, s.Name)
	}
	return out
}

// AllIDs lists every experiment in presentation order.
func AllIDs() []string {
	return []string{
		"table1",
		"fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6a", "fig6b", "fig7",
		"table2",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"hemisphere",
		"discussion-delay", "discussion-adversary", "discussion-monitor",
		"ablate-distance", "ablate-polish", "ablate-threshold",
		"ablate-reference", "ablate-crowdsize",
		"crawl-faults",
	}
}

// Run executes one experiment by ID.
func (l *Lab) Run(id string) (*Result, error) {
	start := time.Now()
	var (
		res *Result
		err error
	)
	switch id {
	case "table1":
		res, err = l.TableI()
	case "fig1":
		res, err = l.Fig1()
	case "fig2":
		res, err = l.Fig2()
	case "fig3":
		res, err = l.SingleCountryPlacement("fig3", "de", 1)
	case "fig4":
		res, err = l.SingleCountryPlacement("fig4", "fr", 1)
	case "fig5":
		res, err = l.SingleCountryPlacement("fig5", "my", 8)
	case "fig6a":
		res, err = l.Fig6a()
	case "fig6b":
		res, err = l.Fig6b()
	case "fig7":
		res, err = l.Fig7()
	case "table2":
		res, err = l.TableII()
	case "fig8":
		res, err = l.Fig8()
	case "fig9":
		res, err = l.ForumPlacement("fig9", "CRD Club")
	case "fig10":
		res, err = l.ForumPlacement("fig10", "Italian DarkNet Community")
	case "fig11":
		res, err = l.ForumPlacement("fig11", "Dream Market")
	case "fig12":
		res, err = l.ForumPlacement("fig12", "The Majestic Garden")
	case "fig13":
		res, err = l.ForumPlacement("fig13", "Pedo Support Community")
	case "hemisphere":
		res, err = l.Hemisphere()
	case "discussion-delay":
		res, err = l.DiscussionDelay()
	case "discussion-adversary":
		res, err = l.DiscussionAdversary()
	case "discussion-monitor":
		res, err = l.DiscussionMonitor()
	case "ablate-distance":
		res, err = l.AblateDistance()
	case "ablate-polish":
		res, err = l.AblatePolish()
	case "ablate-threshold":
		res, err = l.AblateThreshold()
	case "ablate-reference":
		res, err = l.AblateReference()
	case "ablate-crowdsize":
		res, err = l.AblateCrowdSize()
	case "crawl-faults":
		res, err = l.CrawlFaults()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, AllIDs())
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Elapsed = time.Since(start)
	return res, nil
}

// sortedMixKeys lists a forum mix's region codes in deterministic order.
func sortedMixKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
