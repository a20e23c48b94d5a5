package pipeline

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// writeCrowd generates a small two-region crowd and writes it as a CSV
// trace, returning the path.
func writeCrowd(t *testing.T, dir string) string {
	t.Helper()
	jp, err := tz.ByCode("jp")
	if err != nil {
		t.Fatal(err)
	}
	it, err := tz.ByCode("it")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.GenerateCrowd(11, synth.CrowdConfig{
		Name: "pipeline-test",
		Groups: []synth.Group{
			{Region: jp, Users: 25, PostsPerUser: 60},
			{Region: it, Users: 15, PostsPerUser: 60},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "crowd.csv")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// testReference builds one small synthetic reference per test binary; the
// build is deterministic, so sharing it across tests changes nothing.
var refOnce *profile.GenericResult

func testReference(t testing.TB) func() (*profile.GenericResult, error) {
	t.Helper()
	return func() (*profile.GenericResult, error) {
		if refOnce == nil {
			twitter, err := synth.TwitterDataset(2018, synth.TwitterOptions{Scale: 300})
			if err != nil {
				return nil, err
			}
			refOnce, err = profile.BuildGeneric(twitter, profile.GenericOptions{})
			if err != nil {
				return nil, err
			}
		}
		return refOnce, nil
	}
}

func geoJSON(t *testing.T, res *Result) string {
	t.Helper()
	data, err := json.Marshal(res.Geo)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestGeolocateLenientTrace: a damaged trace fails strict ingest but runs
// to completion leniently, with the damage accounted for in the report.
func TestGeolocateLenientTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeCrowd(t, dir)
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte{}, data...)
	damaged = append(damaged, []byte("broken-row-no-comma\nux,notatime\n")...)
	if err := os.WriteFile(tracePath, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		TracePath:   tracePath,
		Reference:   testReference(t),
		ReferenceID: "test-ref",
	}
	if _, err := Geolocate(cfg); err == nil {
		t.Fatal("strict ingest of a damaged trace should fail")
	}
	cfg.Lenient = true
	res, err := Geolocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantine == nil || res.Quarantine.BadRows != 2 {
		t.Fatalf("quarantine = %+v, want 2 bad rows", res.Quarantine)
	}
	if res.Geo == nil || len(res.Geo.Components) == 0 {
		t.Fatal("lenient run produced no geolocation")
	}
	// A tight budget still fails.
	cfg.MaxBadRows = 1
	if _, err := Geolocate(cfg); err == nil {
		t.Fatal("bad-row budget should fail the run")
	}
}

func TestGeolocateConfigErrors(t *testing.T) {
	t.Parallel()
	if _, err := Geolocate(Config{TracePath: "x"}); err == nil || !strings.Contains(err.Error(), "Reference") {
		t.Errorf("missing Reference: %v", err)
	}
	if _, err := Geolocate(Config{
		TracePath: filepath.Join(t.TempDir(), "missing.csv"),
		Reference: func() (*profile.GenericResult, error) { return nil, nil },
	}); err == nil {
		t.Error("missing trace should fail")
	}
}

// TestGeolocateSnapshotPaths: every ingest path — CSV at the default and
// at 7 workers, snapshot write, snapshot load — and an explicit UTC cell
// hook in the profile build yield a byte-identical geolocation.
func TestGeolocateSnapshotPaths(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeCrowd(t, dir)
	base := Config{
		TracePath:   tracePath,
		Reference:   testReference(t),
		ReferenceID: "test-ref",
	}
	clean, err := Geolocate(base)
	if err != nil {
		t.Fatal(err)
	}
	want := geoJSON(t, clean)

	sharded := base
	sharded.Workers = 7
	res, err := Geolocate(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if got := geoJSON(t, res); got != want {
		t.Errorf("sharded ingest diverged from sequential")
	}

	// Bucketing through UTCCells() instead of the default floor(sec/3600)
	// key must not change the output either.
	hooked := base
	hooked.Cells = profile.UTCCells()
	res, err = Geolocate(hooked)
	if err != nil {
		t.Fatal(err)
	}
	if got := geoJSON(t, res); got != want {
		t.Errorf("explicit UTC cell hook diverged")
	}

	// First snapshot run ingests the CSV and installs the snapshot …
	snap := base
	snap.SnapshotPath = filepath.Join(dir, "crowd.dcs")
	res, err = Geolocate(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotWritten || res.SnapshotLoaded {
		t.Fatalf("first snapshot run: written=%v loaded=%v", res.SnapshotWritten, res.SnapshotLoaded)
	}
	if got := geoJSON(t, res); got != want {
		t.Errorf("snapshot-writing run diverged")
	}

	// … the second loads it without touching the CSV at all.
	if err := os.Remove(tracePath); err != nil {
		t.Fatal(err)
	}
	res, err = Geolocate(snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotWritten || !res.SnapshotLoaded {
		t.Fatalf("second snapshot run: written=%v loaded=%v", res.SnapshotWritten, res.SnapshotLoaded)
	}
	if res.Quarantine != nil {
		t.Errorf("snapshot load reported a quarantine: %+v", res.Quarantine)
	}
	if got := geoJSON(t, res); got != want {
		t.Errorf("snapshot-loading run diverged")
	}

	// A corrupted snapshot fails loudly with recovery advice, never
	// silently falls back to the (here: deleted) CSV.
	raw, err := os.ReadFile(snap.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(snap.SnapshotPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Geolocate(snap); err == nil || !strings.Contains(err.Error(), "delete it to re-ingest") {
		t.Errorf("corrupt snapshot: %v", err)
	}
}

// TestFingerprintSensitivity: the run's fingerprint, the provenance
// header hash that anchors the chain, moves with everything the output
// depends on — the reference ID (a named one, or the content ID an
// unnamed reference gets), MinPosts, SkipPolish, Margins and the dataset
// — and ignores what it doesn't (worker count).
func TestFingerprintSensitivity(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeCrowd(t, dir)
	base := Config{
		TracePath:   tracePath,
		Reference:   testReference(t),
		ReferenceID: "test-ref",
		Provenance:  true,
	}
	header := func(cfg Config) string {
		t.Helper()
		res, err := Geolocate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Provenance.Records[0].Prev
	}
	want := header(base)
	workers := base
	workers.Workers = 3
	if header(workers) != want {
		t.Error("worker count must not change the provenance header")
	}
	for name, mutate := range map[string]func(*Config){
		"reference":  func(c *Config) { c.ReferenceID = "other-ref" },
		"content-id": func(c *Config) { c.ReferenceID = "" },
		"minposts":   func(c *Config) { c.MinPosts = 10 },
		"polish":     func(c *Config) { c.SkipPolish = true },
		"margins":    func(c *Config) { c.Margins = true },
	} {
		changed := base
		mutate(&changed)
		if header(changed) == want {
			t.Errorf("%s change must change the provenance header", name)
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	extra := append(data, []byte("zz-user,2017-06-01T10:00:00Z\n")...)
	if err := os.WriteFile(tracePath, extra, 0o644); err != nil {
		t.Fatal(err)
	}
	if header(base) == want {
		t.Error("dataset change must change the provenance header")
	}
}

// unixNanoTwins are two instants whose UnixNano values are equal: the
// second lies outside the ±292-year int64 nanosecond range and wraps onto
// the first. Both are valid RFC3339 trace timestamps.
const unixNanoTwinA, unixNanoTwinB = "2017-03-01T12:00:00Z", "2601-09-20T11:34:33.709551616Z"

// TestHashDatasetSeparatesUnixNanoTwins is the regression test for a
// dataset digest over UnixNano timestamps: two traces differing only in
// one post's instant, A and its wrapped twin B, hashed alike, so a
// provenance chain of one would have named the other. The .dcs content
// hash keeps whole seconds and nanoseconds apart.
func TestHashDatasetSeparatesUnixNanoTwins(t *testing.T) {
	a, err := time.Parse(time.RFC3339, unixNanoTwinA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := time.Parse(time.RFC3339, unixNanoTwinB)
	if err != nil {
		t.Fatal(err)
	}
	if a.UnixNano() != b.UnixNano() || a.Equal(b) {
		t.Fatalf("not a UnixNano collision: %d vs %d", a.UnixNano(), b.UnixNano())
	}
	crowd, err := os.ReadFile(writeCrowd(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	hashWith := func(stamp string) string {
		t.Helper()
		data := append(bytes.Clone(crowd), []byte("twin-user,"+stamp+"\n")...)
		ing, err := trace.IngestCSV("crowd.csv", data, trace.IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := HashDataset(ing.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	hashA := hashWith(unixNanoTwinA)
	if hashWith(unixNanoTwinA) != hashA {
		t.Fatal("dataset hash is not deterministic")
	}
	if hashWith(unixNanoTwinB) == hashA {
		t.Error("traces differing only in the UnixNano twin hash alike")
	}
}
