package darkcrowd

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestEndToEndFacade(t *testing.T) {
	labelled, err := SyntheticTwitterDataset(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildReference(labelled)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.PerRegion) != 14 {
		t.Errorf("reference has %d regions", len(ref.PerRegion))
	}

	crowd, err := SyntheticCrowd(2, map[string]int{"jp": 60, "us-il": 30}, 100)
	if err != nil {
		t.Fatal(err)
	}
	report, err := GeolocateCrowd(postsOf(crowd), ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Components) != 2 {
		t.Fatalf("components = %v", report.Components)
	}
	// Japan (2/3 of crowd) must dominate at ~UTC+9.
	if math.Abs(report.Components[0].Offset-9) > 1.2 {
		t.Errorf("dominant component at UTC%+.1f, want +9", report.Components[0].Offset)
	}
	found := false
	for _, c := range report.Components {
		if math.Abs(c.Offset-(-6)) <= 1.6 {
			found = true
		}
	}
	if !found {
		t.Errorf("no Illinois component in %v", report.Components)
	}
	if report.ActiveUsers == 0 || len(report.PlacementHistogram) != 24 {
		t.Errorf("report incomplete: %+v", report)
	}
	if report.AvgFitDistance > 0.05 {
		t.Errorf("fit distance %g", report.AvgFitDistance)
	}
}

func TestGeolocateCrowdErrors(t *testing.T) {
	if _, err := GeolocateCrowd(nil, nil, Options{}); err == nil {
		t.Error("nil reference accepted")
	}
	labelled, err := SyntheticTwitterDataset(3, 400)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildReference(labelled)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GeolocateCrowd(nil, ref, Options{}); err == nil {
		t.Error("empty crowd accepted")
	}
}

func TestSyntheticCrowdErrors(t *testing.T) {
	if _, err := SyntheticCrowd(1, map[string]int{"xx": 5}, 50); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestClassifyHemisphereFacade(t *testing.T) {
	crowd, err := SyntheticCrowd(4, map[string]int{"br": 1}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ClassifyHemisphere(postsOf(crowd))
	if err != nil {
		t.Fatal(err)
	}
	if h != HemisphereSouth {
		t.Errorf("Brazilian user ruled %v", h)
	}
	if _, err := ClassifyHemisphere(nil); err == nil {
		t.Error("no posts accepted")
	}
}

func TestRegionCodes(t *testing.T) {
	codes := RegionCodes()
	if len(codes) < 14 {
		t.Errorf("%d region codes", len(codes))
	}
	if codes["de"] == "" {
		t.Error("missing Germany")
	}
}

func TestOffsetOfZoneIndex(t *testing.T) {
	if OffsetOfZoneIndex(0) != -11 || OffsetOfZoneIndex(23) != 12 {
		t.Error("zone index translation wrong")
	}
}

func TestServerOffset(t *testing.T) {
	trueUTC := time.Date(2017, 6, 1, 10, 0, 0, 0, time.UTC)
	displayed := time.Date(2017, 6, 1, 13, 0, 2, 0, time.UTC) // +3h and 2s latency
	if got := ServerOffset(displayed, trueUTC); got != 3*time.Hour {
		t.Errorf("ServerOffset = %v", got)
	}
}

func TestReferenceJSONRoundTrip(t *testing.T) {
	labelled, err := SyntheticTwitterDataset(5, 300)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildReference(labelled)
	if err != nil {
		t.Fatal(err)
	}
	ref.Origin = "synth:seed=5,scale=300"
	var buf bytes.Buffer
	if err := ref.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReference(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generic != ref.Generic {
		t.Error("generic profile lost in round trip")
	}
	if len(got.PerRegion) != len(ref.PerRegion) {
		t.Errorf("regions %d, want %d", len(got.PerRegion), len(ref.PerRegion))
	}
	if got.Origin != ref.Origin {
		t.Errorf("origin %q, want %q", got.Origin, ref.Origin)
	}
	// A reference without an origin writes no origin field.
	buf.Reset()
	ref.Origin = ""
	if err := ref.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "origin") {
		t.Errorf("origin-less reference writes %s", buf.String())
	}
	// Corrupt and empty inputs fail.
	if _, err := ReadReference(strings.NewReader("{broken")); err == nil {
		t.Error("broken JSON accepted")
	}
	if _, err := ReadReference(strings.NewReader("{}")); err == nil {
		t.Error("empty reference accepted")
	}
}

// postsOf materializes a dataset's rows through the Post accessor.
func postsOf(ds *Dataset) []Post {
	out := make([]Post, ds.NumPosts())
	for i := range out {
		out[i] = ds.Post(i)
	}
	return out
}
