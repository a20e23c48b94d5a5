package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/tz"
)

var updateVerifyFixture = flag.Bool("update", false, "rewrite the committed verify fixture")

const (
	fixtureSnapshot = "testdata/verify_crowd.dcs"
	fixtureReport   = "testdata/verify_report.json"
	fixtureSeed     = 2018
	fixtureScale    = 300
)

// TestVerifyFixtureRoundTrip replays the committed report from the
// committed snapshot. Run with -update to regenerate both fixtures.
func TestVerifyFixtureRoundTrip(t *testing.T) {
	if *updateVerifyFixture {
		writeVerifyFixture(t)
	}
	raw, err := os.ReadFile(fixtureReport)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	res, err := Verify(raw, VerifyOptions{SnapshotPath: fixtureSnapshot})
	if err != nil {
		t.Fatalf("committed fixture does not verify: %v", err)
	}
	if res.Posts == 0 || res.Records == 0 {
		t.Fatalf("empty verification result: %+v", res)
	}
}

// writeVerifyFixture regenerates testdata. The snapshot is written
// straight from the synthetic crowd — never through a CSV in a temp
// directory — so the dataset name chained into the report is the stable
// "verify-fixture", not a machine-local path.
func writeVerifyFixture(t *testing.T) {
	t.Helper()
	jp, err := tz.ByCode("jp")
	if err != nil {
		t.Fatal(err)
	}
	br, err := tz.ByCode("br")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.GenerateCrowd(7, synth.CrowdConfig{
		Name: "verify-fixture",
		Groups: []synth.Group{
			{Region: jp, Users: 12, PostsPerUser: 50},
			{Region: br, Users: 8, PostsPerUser: 50},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Create(fixtureSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSnapshot(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Geolocate(fixtureRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := (&Report{Geolocation: res.Geo, Provenance: res.Provenance}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fixtureReport, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s and %s", fixtureSnapshot, fixtureReport)
}

// fixtureRunConfig mirrors what `darkcrowd geolocate -snapshot … -seed
// 2018 -twitter-scale 300 -margins -bootstrap 16 -provenance` runs.
func fixtureRunConfig() Config {
	return Config{
		SnapshotPath: fixtureSnapshot,
		ReferenceID:  SynthReferenceID(fixtureSeed, fixtureScale),
		Reference: func() (*profile.GenericResult, error) {
			return SynthReference(fixtureSeed, fixtureScale, 0)
		},
		Margins:             true,
		BootstrapReplicates: 16,
		BootstrapSeed:       5,
		Provenance:          true,
	}
}

// TestVerifyRejectsChainTamper: byte-level edits inside the provenance
// section fail before any replay runs.
func TestVerifyRejectsChainTamper(t *testing.T) {
	t.Parallel()
	raw := readFixtureReport(t)
	tampers := map[string]func([]byte) []byte{
		"dataset-sha": func(b []byte) []byte {
			return flipFirstHexAfter(t, b, `"sha256": "`)
		},
		"record-payload": func(b []byte) []byte {
			return flipFirstHexAfter(t, b, `"payload_sha256": "`)
		},
		"stage-name": func(b []byte) []byte {
			out := bytes.Replace(b, []byte(`"stage": "placement"`), []byte(`"stage": "Placement"`), 1)
			if bytes.Equal(out, b) {
				t.Fatal("fixture carries no placement stage to tamper")
			}
			return out
		},
		"bootstrap-param": func(b []byte) []byte {
			out := bytes.Replace(b, []byte(`"bootstrap_replicates": 16`), []byte(`"bootstrap_replicates": 17`), 1)
			if bytes.Equal(out, b) {
				t.Fatal("fixture chains no bootstrap replicate count")
			}
			return out
		},
	}
	for name, tamper := range tampers {
		if _, err := Verify(tamper(append([]byte(nil), raw...)), VerifyOptions{SnapshotPath: fixtureSnapshot}); err == nil {
			t.Errorf("%s tamper verified", name)
		} else if !strings.Contains(err.Error(), "chain") && !strings.Contains(err.Error(), "provenance") {
			t.Logf("%s tamper failed as: %v", name, err)
		}
	}
}

// TestVerifyRejectsDocumentTamper: edits outside the provenance section
// — geolocation numbers, even whitespace — survive the chain checks but
// die on the byte-identical regeneration comparison.
func TestVerifyRejectsDocumentTamper(t *testing.T) {
	raw := readFixtureReport(t)
	for name, tamper := range map[string]func([]byte) []byte{
		"trailing-newline": func(b []byte) []byte { return append(b, '\n') },
		"geo-field": func(b []byte) []byte {
			i := bytes.Index(b, []byte(`"Weight":`))
			if i < 0 {
				t.Fatal("fixture has no Weight field")
			}
			out := append([]byte(nil), b...)
			// Nudge the first digit of the weight without breaking JSON.
			for j := i + len(`"Weight":`); j < len(out); j++ {
				if out[j] >= '0' && out[j] <= '9' {
					out[j] = '0' + ('9'-out[j]+'0')%10
					return out
				}
			}
			t.Fatal("no digit after Weight")
			return nil
		},
	} {
		doc := tamper(append([]byte(nil), raw...))
		// The tampered document still parses and its chain still checks —
		// the tamper is outside everything the chain covers.
		var rep Report
		if err := json.Unmarshal(doc, &rep); err != nil {
			t.Fatalf("%s: tampered fixture no longer parses: %v", name, err)
		}
		if err := rep.Provenance.CheckChain(); err != nil {
			t.Fatalf("%s: tamper unexpectedly broke the chain: %v", name, err)
		}
		if _, err := Verify(doc, VerifyOptions{SnapshotPath: fixtureSnapshot}); err == nil {
			t.Errorf("%s tamper verified", name)
		}
	}
}

// TestVerifyRejectsWrongSnapshot: the right report against the wrong
// dataset fails on the content hash, before any replay.
func TestVerifyRejectsWrongSnapshot(t *testing.T) {
	t.Parallel()
	raw := readFixtureReport(t)
	us, err := tz.ByCode("us-ny")
	if err != nil {
		t.Fatal(err)
	}
	other, err := synth.GenerateCrowd(99, synth.CrowdConfig{
		Name:   "verify-fixture", // same name, different content
		Groups: []synth.Group{{Region: us, Users: 5, PostsPerUser: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "other.dcs")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.WriteSnapshot(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(raw, VerifyOptions{SnapshotPath: path}); err == nil {
		t.Error("wrong snapshot verified")
	} else if !strings.Contains(err.Error(), "does not match") {
		t.Errorf("wrong failure mode: %v", err)
	}
}

// TestVerifyReferenceByContent: a report whose reference is named by
// content ("sha256:" ID) verifies only against a reference file with that
// digest. Another file fails with ErrReferenceMismatch before the replay,
// no file fails with an instructive error, and a legacy "file:" ID still
// verifies against the file passed.
func TestVerifyReferenceByContent(t *testing.T) {
	t.Parallel()
	load := func(scale int) func() (*profile.GenericResult, error) {
		gen, err := SynthReference(fixtureSeed, scale, 0)
		return func() (*profile.GenericResult, error) { return gen, err }
	}
	report := func(refID string) []byte {
		t.Helper()
		cfg := fixtureRunConfig()
		cfg.Reference, cfg.ReferenceID = load(fixtureScale), refID
		res, err := Geolocate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := (&Report{Geolocation: res.Geo, Provenance: res.Provenance}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	resolver := func(scale int) func(string) (func() (*profile.GenericResult, error), error) {
		return func(string) (func() (*profile.GenericResult, error), error) { return load(scale), nil }
	}

	byContent := report("")
	var rep Report
	if err := json.Unmarshal(byContent, &rep); err != nil {
		t.Fatal(err)
	}
	if id := rep.Provenance.Params.ReferenceID; !strings.HasPrefix(id, "sha256:") {
		t.Fatalf("unnamed reference got ID %q, want a sha256: content ID", id)
	}
	if _, err := Verify(byContent, VerifyOptions{SnapshotPath: fixtureSnapshot, Reference: resolver(fixtureScale)}); err != nil {
		t.Errorf("content-named report does not verify against its reference: %v", err)
	}
	// Scales 299-301 round the Table I user counts alike and build the
	// same reference; 250 builds another.
	_, err := Verify(byContent, VerifyOptions{SnapshotPath: fixtureSnapshot, Reference: resolver(250)})
	if !errors.Is(err, ErrReferenceMismatch) {
		t.Errorf("another reference: got %v, want ErrReferenceMismatch", err)
	}
	if _, err := Verify(byContent, VerifyOptions{SnapshotPath: fixtureSnapshot}); err == nil || !strings.Contains(err.Error(), "reference file") {
		t.Errorf("no reference file: %v", err)
	}

	legacy := report("file:ref.json")
	if _, err := Verify(legacy, VerifyOptions{SnapshotPath: fixtureSnapshot, Reference: resolver(fixtureScale)}); err != nil {
		t.Errorf("legacy file: report does not verify: %v", err)
	}
}

func TestVerifyInputErrors(t *testing.T) {
	t.Parallel()
	raw := readFixtureReport(t)
	if _, err := Verify([]byte("{not json"), VerifyOptions{SnapshotPath: fixtureSnapshot}); err == nil {
		t.Error("garbage report verified")
	}
	if _, err := Verify([]byte("{}\n"), VerifyOptions{SnapshotPath: fixtureSnapshot}); err == nil || !strings.Contains(err.Error(), "provenance") {
		t.Errorf("provenance-free report: %v", err)
	}
	if _, err := Verify(raw, VerifyOptions{}); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("missing snapshot path: %v", err)
	}
}

func readFixtureReport(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(fixtureReport)
	if err != nil {
		t.Skipf("fixture missing (regenerate with -update): %v", err)
	}
	return raw
}

// flipFirstHexAfter flips the hex character right after the first
// occurrence of marker.
func flipFirstHexAfter(t *testing.T, b []byte, marker string) []byte {
	t.Helper()
	i := bytes.Index(b, []byte(marker))
	if i < 0 {
		t.Fatalf("fixture does not contain %q", marker)
	}
	out := append([]byte(nil), b...)
	j := i + len(marker)
	if out[j] == '0' {
		out[j] = '1'
	} else {
		out[j] = '0'
	}
	return out
}
