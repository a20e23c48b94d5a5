// Dark Web forum example: the paper's full collection path, in process.
//
// A Pedo-Support-Community-like crowd (47% US Pacific, 36% Brazil, 17%
// UAE) posts on a forum hosted as a hidden service on a simulated Tor
// network with a skewed server clock. The example scrapes the forum
// through a three-hop circuit — signing up and posting in the Welcome
// thread to learn the clock offset, as §V describes — then geolocates the
// crowd and runs the §V-F hemisphere test on the most active users.
//
//	go run ./examples/darkwebforum
package main

import (
	"fmt"
	"log"
	"net/http"
	"time"

	"darkcrowd"
	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/crawler"
	"darkcrowd/internal/forum"
	"darkcrowd/internal/onion"
	"darkcrowd/internal/synth"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The §V forum spec, scaled to a quarter for a snappy demo.
	spec, err := synth.ForumSpecByName("Pedo Support Community")
	if err != nil {
		return err
	}
	spec.Users /= 4
	spec.Posts /= 4

	crowd, err := synth.ForumCrowd(1234, spec)
	if err != nil {
		return err
	}

	// The forum, with a deliberately skewed clock.
	f := forum.New(forum.Config{
		Name:         spec.Name,
		ServerOffset: time.Duration(spec.ServerOffsetHours) * time.Hour,
		PageSize:     50,
	})
	if err := f.ImportCrowd(crowd, forum.ImportOptions{}); err != nil {
		return err
	}

	// The Tor stand-in: relays, directory, hidden service.
	network := onion.NewNetwork(5)
	defer network.Close()
	if _, err := network.AddRelays(9); err != nil {
		return err
	}
	svc, err := onion.HostService(network, "forum-host", onion.DefaultIntroPoints)
	if err != nil {
		return err
	}
	defer svc.Close()
	server := &http.Server{Handler: f.Handler()}
	go func() { _ = server.Serve(svc.Listener()) }()
	defer server.Close()
	fmt.Printf("forum live at %s (%d posts, clock skew %+dh)\n",
		svc.Onion(), f.NumPosts(), spec.ServerOffsetHours)

	// Scrape through a circuit.
	torClient, err := onion.NewClient(network, "researcher")
	if err != nil {
		return err
	}
	defer torClient.Close()
	c := &crawler.Crawler{
		HTTPClient: &http.Client{Transport: &http.Transport{DialContext: torClient.DialContext}},
		BaseURL:    "http://" + svc.Onion(),
	}
	res, err := c.Scrape(spec.Name)
	if err != nil {
		return err
	}
	fmt.Printf("scraped %d posts; measured server offset %v\n",
		res.Dataset.NumPosts(), res.ServerOffset)

	// Geolocate with the public API.
	labelled, err := darkcrowd.SyntheticTwitterDataset(1, 40)
	if err != nil {
		return err
	}
	ref, err := darkcrowd.BuildReference(labelled)
	if err != nil {
		return err
	}
	posts := make([]darkcrowd.Post, res.Dataset.NumPosts())
	for i := range posts {
		posts[i] = res.Dataset.Post(i)
	}
	report, err := darkcrowd.GeolocateCrowd(posts, ref, darkcrowd.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("\ncrowd components (truth: 47%% UTC-8, 36%% UTC-3, 17%% UTC+4):\n")
	for i, component := range report.Components {
		fmt.Printf("  %d. %s\n", i+1, component)
	}

	// Hemisphere test on the five most active users (§V-F).
	fmt.Println("\nhemisphere of the five most active users:")
	verdicts, err := geoloc.ClassifyTopUsers(res.Dataset, 5, geoloc.HemisphereOptions{})
	if err != nil {
		return err
	}
	for u, v := range verdicts {
		truth := crowd.GroundTruth[u]
		if v == nil {
			fmt.Printf("  %-16s too little seasonal activity (truth: %s)\n", u, truth)
			continue
		}
		fmt.Printf("  %-16s ruled %-6s (truth: %s)\n", u, v.Hemisphere, truth)
	}
	return nil
}
