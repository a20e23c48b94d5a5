// Command forumsim runs the paper's collection-and-analysis path end to
// end, fully in process:
//
//  1. boot an onion-routing network with a configurable relay count;
//  2. synthesize a Dark Web forum crowd (one of the paper's five §V
//     forums, or a custom region mixture);
//  3. host the forum as a hidden service, with a skewed server clock;
//  4. scrape it through a three-hop circuit — registration, Welcome-thread
//     clock probe, full pagination;
//  5. polish the dataset and geolocate the crowd, printing the uncovered
//     time-zone components next to the ground truth.
//
// Usage:
//
//	forumsim                           # Dream Market, paper census
//	forumsim -forum "CRD Club"         # another §V forum
//	forumsim -scale 4                  # quarter-size crowd (faster)
//	forumsim -relays 12 -seed 7
//	forumsim -serve 127.0.0.1:8080     # host over plain HTTP instead
//
// With -serve the onion pipeline is skipped: the synthetic forum is hosted
// directly over plain HTTP (for darkcrowd scrape and crawler testing)
// until SIGINT/SIGTERM, then drained gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/crawler"
	"darkcrowd/internal/forum"
	"darkcrowd/internal/onion"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/tz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "forumsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("forumsim", flag.ContinueOnError)
	var (
		forumName    = fs.String("forum", "Dream Market", "forum to simulate (a §V forum name)")
		scale        = fs.Int("scale", 1, "divide the forum census by this factor")
		relays       = fs.Int("relays", 9, "number of onion relays")
		seed         = fs.Int64("seed", 42, "seed for all synthetic data")
		twitterScale = fs.Int("twitter-scale", 40, "scale of the reference Twitter dataset")
		serveAddr    = fs.String("serve", "", "host the forum over plain HTTP on this address (skips the onion pipeline; Ctrl-C / SIGTERM to stop)")

		failEvery = fs.Int("fail-every", 0, "with -serve, answer 503 on every Nth request (0 = never; for crawler testing)")
		latency   = fs.Duration("latency", 0, "with -serve, delay every response by this much")

		dropProb  = fs.Float64("drop", 0, "probability of dropping each relay cell")
		resetProb = fs.Float64("reset", 0, "probability of resetting the circuit under each relay cell")
		delayProb = fs.Float64("delay-prob", 0, "probability of delaying each relay cell")
		delay     = fs.Duration("delay", 20*time.Millisecond, "how long a delayed cell stalls")
		faultSeed = fs.Int64("fault-seed", 7, "seed for the fault plan")
		maxFaults = fs.Int("max-faults", 0, "total fault budget (0 = unlimited)")
		retries   = fs.Int("retries", crawler.DefaultMaxAttempts, "crawler attempts per request")
		timeout   = fs.Duration("timeout", 5*time.Second, "crawler per-request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Crowd + forum, through the shared sim constructor (scaled census,
	// ground-truth crowd, import, skewed server clock).
	sim, err := forum.NewSim(forum.ServeConfig{
		Forum:     *forumName,
		Seed:      *seed,
		Scale:     *scale,
		FailEvery: *failEvery,
		Latency:   *latency,
	})
	if err != nil {
		return err
	}
	spec, f := sim.Spec, sim.Forum

	fmt.Fprintf(out, "=== %s (%s)\n", spec.Name, spec.Onion)
	fmt.Fprintf(out, "ground truth: %d users, ~%d posts, mixture:\n", spec.Users, spec.Posts)
	codes := make([]string, 0, len(spec.Mix))
	for code := range spec.Mix {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		region, err := tz.ByCode(code)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %5.1f%%  %s (%s)\n", spec.Mix[code]*100, region.Name, region.StandardOffset)
	}
	fmt.Fprintf(out, "server clock skew: %+dh (to be discovered by the probe)\n\n", spec.ServerOffsetHours)
	fmt.Fprintf(out, "forum holds %d posts by %d members\n", f.NumPosts(), f.NumMembers())

	// Plain-HTTP hosting mode: no onion network, no scrape — just the
	// forum server with a graceful-shutdown lifecycle.
	if *serveAddr != "" {
		return servePlain(*serveAddr, sim, out)
	}

	// 1. Onion network (optionally with a seeded fault plan).
	fmt.Fprintf(out, "booting onion network with %d relays...\n", *relays)
	network := onion.NewNetwork(*seed)
	defer network.Close()
	if _, err := network.AddRelays(*relays); err != nil {
		return err
	}

	// 3. Hidden service.
	svc, err := onion.HostService(network, "forum-host", onion.DefaultIntroPoints)
	if err != nil {
		return err
	}
	defer svc.Close()
	server := &http.Server{Handler: f.Handler()}
	go func() { _ = server.Serve(svc.Listener()) }()
	defer server.Close()
	fmt.Fprintf(out, "forum is live as hidden service %s\n\n", svc.Onion())

	// Faults start only once the service is published: the intro circuits
	// are long-lived infrastructure built exactly once, while the crawl
	// retries its way through whatever the fabric does to it.
	var injector *onion.FaultInjector
	if *dropProb > 0 || *resetProb > 0 || *delayProb > 0 {
		injector = onion.NewFaultInjector(onion.FaultConfig{
			Seed:      *faultSeed,
			DropProb:  *dropProb,
			ResetProb: *resetProb,
			DelayProb: *delayProb,
			Delay:     *delay,
			MaxFaults: *maxFaults,
		})
		network.SetFaultInjector(injector)
		fmt.Fprintf(out, "fault injection on: drop %.3f, reset %.3f, delay %.3f (%v), budget %d\n",
			*dropProb, *resetProb, *delayProb, *delay, *maxFaults)
	}

	// 4. Scrape through a circuit.
	torClient, err := onion.NewClient(network, "scraper")
	if err != nil {
		return err
	}
	defer torClient.Close()
	c := &crawler.Crawler{
		HTTPClient: &http.Client{Transport: &http.Transport{DialContext: torClient.DialContext}},
		BaseURL:    "http://" + svc.Onion(),
		Timeout:    *timeout,
		Retry:      crawler.RetryPolicy{MaxAttempts: *retries},
	}
	fmt.Fprintln(out, "scraping through the onion circuit (probe + full pagination)...")
	start := time.Now()
	res, err := c.Scrape(spec.Name)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scraped %d posts from %d boards / %d threads / %d pages in %s\n",
		res.Dataset.NumPosts(), res.Boards, res.Threads, res.Pages, time.Since(start).Round(time.Millisecond))
	if injector != nil {
		fmt.Fprintf(out, "survived %s with %d crawler retries\n", injector.Stats(), res.Retries)
	}
	fmt.Fprintf(out, "measured server offset: %v (configured %+dh)\n\n", res.ServerOffset, spec.ServerOffsetHours)

	// 5. Geolocate.
	fmt.Fprintf(out, "building reference profiles (Twitter stand-in at scale 1/%d)...\n", *twitterScale)
	twitter, err := synth.TwitterDataset(*seed+1, synth.TwitterOptions{Scale: *twitterScale})
	if err != nil {
		return err
	}
	gen, err := profile.BuildGeneric(twitter, profile.GenericOptions{})
	if err != nil {
		return err
	}
	profiles, err := profile.BuildUserProfiles(res.Dataset, profile.BuildOptions{})
	if err != nil {
		return err
	}
	polished, geo, err := geoloc.LocateCrowd(profiles, gen.Generic, geoloc.LocateOptions{})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "\n=== geolocation of the %s crowd (%d active users after polishing)\n",
		spec.Name, len(polished.Kept))
	for i, comp := range geo.Components {
		fmt.Fprintf(out, "  component %d: %s\n", i+1, comp)
	}
	fmt.Fprintf(out, "  fit quality: avg point distance %.4f, std %.4f\n", geo.AvgDistance, geo.StdDistance)
	return nil
}

// serveTestHook, when non-nil, receives the resolved listen address and a
// function that triggers shutdown, letting tests drive the serve lifecycle
// without sending real signals.
var serveTestHook func(addr string, stop context.CancelFunc)

// servePlain hosts the simulated forum over plain HTTP until SIGINT/SIGTERM,
// then drains in-flight requests. The listener is bound before anything is
// printed, so the advertised URL is always connectable (and ":0" renders as
// the real resolved port).
func servePlain(addr string, sim *forum.Sim, out io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintf(out, "serving %s (%d members, %d posts, clock skew %+dh) on http://%s\n",
		sim.Spec.Name, sim.Forum.NumMembers(), sim.Forum.NumPosts(),
		sim.Spec.ServerOffsetHours, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if serveTestHook != nil {
		serveTestHook(ln.Addr().String(), stop)
	}

	srv := &http.Server{Handler: sim.Forum.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	<-errCh // always http.ErrServerClosed after a clean Shutdown
	return nil
}
