// Mixed-crowd example: reproduce the paper's Figure 6(b) scenario — a
// forum whose visitors come from three regions in different time zones
// (Illinois, Germany, Malaysia) — and watch the Gaussian mixture model
// uncover the number of regions and their zones.
//
//	go run ./examples/mixedcrowd
package main

import (
	"fmt"
	"log"
	"strings"

	"darkcrowd"
)

func main() {
	labelled, err := darkcrowd.SyntheticTwitterDataset(1, 40)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := darkcrowd.BuildReference(labelled)
	if err != nil {
		log.Fatal(err)
	}

	// A crowd the observer knows nothing about: in truth 45% Illinois
	// (UTC-6), 35% Germany (UTC+1), 20% Malaysia (UTC+8).
	crowd, err := darkcrowd.SyntheticCrowd(99, map[string]int{
		"us-il": 90,
		"de":    70,
		"my":    40,
	}, 100)
	if err != nil {
		log.Fatal(err)
	}

	posts := make([]darkcrowd.Post, crowd.NumPosts())
	for i := range posts {
		posts[i] = crowd.Post(i)
	}
	report, err := darkcrowd.GeolocateCrowd(posts, ref, darkcrowd.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("placement histogram over the 24 time zones:")
	maxShare := 0.0
	for _, share := range report.PlacementHistogram {
		if share > maxShare {
			maxShare = share
		}
	}
	for zi, share := range report.PlacementHistogram {
		if share == 0 {
			continue
		}
		bar := int(share / maxShare * 40)
		fmt.Printf("  UTC%+03d %-40s %5.1f%%\n",
			darkcrowd.OffsetOfZoneIndex(zi), strings.Repeat("#", bar), share*100)
	}

	fmt.Println("\nuncovered components (truth: 45% UTC-6, 35% UTC+1, 20% UTC+8):")
	for i, component := range report.Components {
		fmt.Printf("  %d. %s\n", i+1, component)
	}
	fmt.Printf("\nGaussian-mixture fit quality: avg %.4f, std %.4f (cf. Table II)\n",
		report.AvgFitDistance, report.StdFitDistance)
}
