package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"darkcrowd/internal/atomicio"
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

func testReference(t *testing.T) func() (*profile.GenericResult, error) {
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

func TestGeolocateCheckpointedMatchesClean(t *testing.T) {
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
	if clean.Restored {
		t.Error("clean run restored the reference")
	}
	if clean.ActiveUsers == 0 || clean.Geo == nil || len(clean.Geo.Components) == 0 {
		t.Fatalf("clean run produced no geolocation: %+v", clean)
	}
	want := geoJSON(t, clean)

	// A checkpointing run from scratch must agree byte for byte.
	ckCfg := base
	ckCfg.CheckpointPath = filepath.Join(dir, "stage.ckpt")
	first, err := Geolocate(ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := geoJSON(t, first); got != want {
		t.Errorf("checkpointing run diverged from clean run:\n%s\nvs\n%s", got, want)
	}
	if first.Restored {
		t.Error("fresh checkpointing run restored the reference")
	}
	// The checkpoint holds the reference and nothing computed after it.
	raw, err := os.ReadFile(ckCfg.CheckpointPath)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"version", "fingerprint", "reference"} {
		if fields[key] == nil {
			t.Errorf("checkpoint has no %q field", key)
		}
		delete(fields, key)
	}
	for key := range fields {
		t.Errorf("checkpoint holds %q, want only version, fingerprint and reference", key)
	}

	// Rerunning against the checkpoint restores the reference, recomputes
	// the rest and still agrees byte for byte.
	second, err := Geolocate(ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Restored {
		t.Error("rerun did not restore the checkpointed reference")
	}
	if got := geoJSON(t, second); got != want {
		t.Errorf("resumed run diverged from clean run:\n%s\nvs\n%s", got, want)
	}
}

// TestGeolocateResumesAfterCheckpointWriteFailure: a checkpoint-save I/O
// failure aborts the run without installing a checkpoint or leaving a
// temp file, and a rerun saves the reference and then resumes from it to
// the byte-identical final result.
func TestGeolocateResumesAfterCheckpointWriteFailure(t *testing.T) {
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

	cfg := base
	cfg.CheckpointPath = filepath.Join(dir, "stage.ckpt")
	// Fail the reference save at the rename step — the worst point:
	// content fully written, not yet installed.
	saves := 0
	injected := errors.New("disk detached")
	cfg.CheckpointHook = func(op, path string) error {
		if op == atomicio.OpRename {
			saves++
			return injected
		}
		return nil
	}
	_, err = Geolocate(cfg)
	if !errors.Is(err, injected) || saves != 1 {
		t.Fatalf("got %v after %d saves, want one injected checkpoint failure", err, saves)
	}
	// Neither the checkpoint nor a temp file may exist after the failure.
	if _, err := os.Stat(cfg.CheckpointPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed save installed a checkpoint (stat err %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %q", e.Name())
		}
	}

	// Rerun without the fault: the reference is rebuilt and saved, and the
	// result is byte-identical to the clean run.
	cfg.CheckpointHook = nil
	res, err := Geolocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored {
		t.Error("rerun after a failed save restored a reference")
	}
	if got := geoJSON(t, res); got != want {
		t.Errorf("rerun after a failed save diverged from clean run")
	}
	ck, err := loadCheckpoint(cfg.CheckpointPath, testCheckpointKey(t, clean.Dataset, cfg))
	if err != nil || ck == nil || ck.Reference == nil {
		t.Fatalf("rerun saved no reference: ck=%v err=%v", ck, err)
	}

	// The next run resumes from it, still byte-identical.
	res, err = Geolocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Restored {
		t.Error("resume did not restore the reference")
	}
	if got := geoJSON(t, res); got != want {
		t.Errorf("post-failure resume diverged from clean run")
	}
}

// TestGeolocateCheckpointFingerprintGuard: a checkpoint from different
// inputs or settings must refuse to resume instead of corrupting the run.
func TestGeolocateCheckpointFingerprintGuard(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeCrowd(t, dir)
	cfg := Config{
		TracePath:      tracePath,
		Reference:      testReference(t),
		ReferenceID:    "test-ref",
		CheckpointPath: filepath.Join(dir, "stage.ckpt"),
	}
	if _, err := Geolocate(cfg); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"reference": func(c *Config) { c.ReferenceID = "other-ref" },
		"minposts":  func(c *Config) { c.MinPosts = 10 },
		"polish":    func(c *Config) { c.SkipPolish = true },
	} {
		changed := cfg
		mutate(&changed)
		if _, err := Geolocate(changed); !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("%s change resumed a stale checkpoint: %v", name, err)
		}
	}
	// Changing the trace content itself must also refuse.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	extra := append(data, []byte("zz-user,2017-06-01T10:00:00Z\n")...)
	if err := os.WriteFile(tracePath, extra, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Geolocate(cfg); !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("trace change resumed a stale checkpoint: %v", err)
	}
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

// testCheckpointKey is the checkpoint fingerprint Geolocate computes for
// ds under cfg.
func testCheckpointKey(t *testing.T, ds *trace.Dataset, cfg Config) string {
	t.Helper()
	dsHash, err := HashDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := checkpointKey(dsHash, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestFingerprintSensitivity: the fingerprint moves with everything the
// output depends on and ignores what it doesn't (worker count).
func TestFingerprintSensitivity(t *testing.T) {
	t.Parallel()
	ds := &trace.Dataset{Name: "fp"}
	base := Config{ReferenceID: "r"}
	fp := testCheckpointKey(t, ds, base)
	if fp != testCheckpointKey(t, ds, base) {
		t.Error("fingerprint is not deterministic")
	}
	workers := base
	workers.Workers = 7
	if testCheckpointKey(t, ds, workers) != fp {
		t.Error("worker count must not change the fingerprint")
	}
	for name, mutate := range map[string]func(*Config){
		"reference": func(c *Config) { c.ReferenceID = "other-ref" },
		"minposts":  func(c *Config) { c.MinPosts = 3 },
		"polish":    func(c *Config) { c.SkipPolish = true },
		"margins":   func(c *Config) { c.Margins = true },
	} {
		changed := base
		mutate(&changed)
		if testCheckpointKey(t, ds, changed) == fp {
			t.Errorf("%s change must change the fingerprint", name)
		}
	}
	renamed := &trace.Dataset{Name: "fp2"}
	if testCheckpointKey(t, renamed, base) == fp {
		t.Error("dataset change must change the fingerprint")
	}
}

// unixNanoTwins are two instants whose UnixNano values are equal: the
// second lies outside the ±292-year int64 nanosecond range and wraps onto
// the first. Both are valid RFC3339 trace timestamps.
const unixNanoTwinA, unixNanoTwinB = "2017-03-01T12:00:00Z", "2601-09-20T11:34:33.709551616Z"

// TestCheckpointRejectsUnixNanoTwin is the regression test for a
// fingerprint over UnixNano timestamps: two traces differing only in one
// post's instant, A and its wrapped twin B, hashed alike, so a checkpoint
// of A resumed against B. The .dcs content hash keeps whole seconds and
// nanoseconds apart, so B must fail with the mismatch error.
func TestCheckpointRejectsUnixNanoTwin(t *testing.T) {
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
	dir := t.TempDir()
	tracePath := writeCrowd(t, dir)
	crowd, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	withPost := func(stamp string) {
		t.Helper()
		data := append(bytes.Clone(crowd), []byte("twin-user,"+stamp+"\n")...)
		if err := os.WriteFile(tracePath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		TracePath:      tracePath,
		Reference:      testReference(t),
		ReferenceID:    "test-ref",
		CheckpointPath: filepath.Join(dir, "stage.ckpt"),
	}
	withPost(unixNanoTwinA)
	if _, err := Geolocate(cfg); err != nil {
		t.Fatal(err)
	}
	withPost(unixNanoTwinB)
	_, err = Geolocate(cfg)
	if !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("trace with the UnixNano twin: got %v, want ErrCheckpointMismatch", err)
	}
}

// TestCheckpointOldVersionFailsClosed: a checkpoint written by format
// version 3 — the format that also held profiles, placement and fit — is
// refused with ErrCheckpointVersion, never resumed.
func TestCheckpointOldVersionFailsClosed(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		TracePath:      writeCrowd(t, dir),
		Reference:      testReference(t),
		ReferenceID:    "test-ref",
		CheckpointPath: filepath.Join(dir, "stage.ckpt"),
	}
	if _, err := Geolocate(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var ck map[string]json.RawMessage
	if err := json.Unmarshal(raw, &ck); err != nil {
		t.Fatal(err)
	}
	ck["version"] = json.RawMessage("3")
	old, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.CheckpointPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Geolocate(cfg)
	if !errors.Is(err, ErrCheckpointVersion) || res != nil {
		t.Fatalf("v3 checkpoint: got %v, want ErrCheckpointVersion", err)
	}
	if want := "has version 3, want 4"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not say %q", err, want)
	}
}
