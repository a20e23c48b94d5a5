// Quickstart: geolocate an anonymous crowd with the public darkcrowd API.
//
// The program builds a reference from a labelled (synthetic) Twitter
// dataset, synthesizes an anonymous crowd living in Japan, and uncovers
// the crowd's time zone from nothing but its posting timestamps.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"darkcrowd"
)

func main() {
	// 1. A labelled dataset with known regions (the paper used a Twitter
	//    stream sample; the library ships a behavioural stand-in).
	labelled, err := darkcrowd.SyntheticTwitterDataset(1, 40)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build the generic reference profile (Fig. 2b of the paper).
	ref, err := darkcrowd.BuildReference(labelled)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference built from %d regions\n", len(ref.PerRegion))

	// 3. An anonymous crowd: we know only (user, UTC timestamp) pairs.
	crowd, err := darkcrowd.SyntheticCrowd(7, map[string]int{"jp": 80}, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anonymous crowd: %d posts by %d users\n",
		crowd.NumPosts(), len(crowd.Users()))

	// 4. Geolocate.
	posts := make([]darkcrowd.Post, crowd.NumPosts())
	for i := range posts {
		posts[i] = crowd.Post(i)
	}
	report, err := darkcrowd.GeolocateCrowd(posts, ref, darkcrowd.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("active users after polishing: %d\n", report.ActiveUsers)
	for _, component := range report.Components {
		fmt.Println(" ->", component)
	}
}
