package main

import (
	"encoding/json"
	"io"
	"slices"
	"testing"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/pipeline"
)

// geolocateReport returns the report `darkcrowd geolocate -ref -out`
// writes for the crowd.
func geolocateReport(t *testing.T, c crowd) []byte {
	t.Helper()
	dir := t.TempDir()
	csv, err := writeFile(dir, "crowd.csv", c.csv())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := writeReferenceFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Geolocate(pipeline.Config{
		TracePath: csv, MinPosts: profile.DefaultMinPosts, ReferenceID: "file:" + ref,
		Reference: func() (*profile.GenericResult, error) { return loadReference(ref) },
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := (&pipeline.Report{Geolocation: res.Geo}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tamper decodes a report, lets f change it and encodes it again.
func tamper(t *testing.T, data []byte, f func(map[string]any)) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	f(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func failures(f func(e *env, res *result)) []string {
	res := &result{}
	f(&env{log: io.Discard}, res)
	return res.failures
}

func TestChecksRejectTamperedTwitterReport(t *testing.T) {
	c := twitterCrowd(3, 64)
	tw := []crowdStats{statsOf(c.Name, c)}
	good := geolocateReport(t, c)
	if got := failures(func(e *env, res *result) { checkTwitter(e, res, tw, [][]byte{good}) }); len(got) > 0 {
		t.Fatalf("the true report fails %v", got)
	}
	shifted := tamper(t, good, func(doc map[string]any) {
		assign := doc["Placement"].(map[string]any)["Assignments"].(map[string]any)
		for id, z := range assign {
			assign[id] = (int(z.(float64))+15)%24 - 11
		}
	})
	if got := failures(func(e *env, res *result) { checkTwitter(e, res, tw, [][]byte{shifted}) }); !slices.Contains(got, "placement.accuracy") {
		t.Errorf("a report with every user moved 4 zones passes; failures %v", got)
	}
	dropped := tamper(t, good, func(doc map[string]any) {
		assign := doc["Placement"].(map[string]any)["Assignments"].(map[string]any)
		n := 0
		for id := range assign {
			if n++; n%4 == 0 {
				delete(assign, id)
			}
		}
	})
	if got := failures(func(e *env, res *result) { checkTwitter(e, res, tw, [][]byte{dropped}) }); !slices.Contains(got, "polish.twitter") {
		t.Errorf("a report missing a quarter of the users passes; failures %v", got)
	}
}

func TestChecksRejectTamperedForumReport(t *testing.T) {
	var forums []crowdStats
	var reports [][]byte
	for _, c := range forumCrowds(3, 8) {
		forums = append(forums, statsOf(c.Name, c))
		reports = append(reports, geolocateReport(t, c))
	}
	if got := failures(func(e *env, res *result) { checkForums(e, res, forums, reports) }); len(got) > 0 {
		t.Fatalf("the true reports fail %v", got)
	}
	moved := slices.Clone(reports)
	moved[3] = tamper(t, reports[3], func(doc map[string]any) {
		doc["Components"].([]any)[0].(map[string]any)["NearestOffset"] = 8
	})
	if got := failures(func(e *env, res *result) { checkForums(e, res, forums, moved) }); !slices.Contains(got, "components.3") {
		t.Errorf("a Majestic Garden component moved to UTC+8 passes; failures %v", got)
	}
}

func TestSameJSONIsByteIdentity(t *testing.T) {
	a := []byte(`{"geo": {"BIC": 1.25, "Components": [1, 2]}}`)
	if !sameJSON(a, []byte("{\"geo\":{\"BIC\":1.25,\"Components\":[1,2]}}\n")) {
		t.Error("whitespace alone made two documents differ")
	}
	if sameJSON(a, []byte(`{"geo":{"BIC":1.250,"Components":[1,2]}}`)) {
		t.Error("a rewritten number compared equal")
	}
	if sameJSON(a, []byte(`{"geo":{"Components":[1,2],"BIC":1.25}}`)) {
		t.Error("reordered fields compared equal")
	}
}

func TestCoveredTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "a", Start: 30, End: 50},
		{ID: 3, Parent: 0, Name: "b", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "c", Start: 15, End: 20},
	}
	got := make(map[string]layerTime)
	for _, lt := range selfTimes(spans) {
		got[lt.name] = lt
	}
	if got["root"].self != 100-40-10 || got["a"].self != 30-5+20 || got["a"].calls != 2 || got["c"].self != 5 {
		t.Errorf("self times %+v", got)
	}
}
