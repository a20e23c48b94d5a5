package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/par"
	"darkcrowd/internal/pipeline"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// writeCrowd generates a deterministic two-region crowd trace.
func writeCrowd(t *testing.T, dir string) string {
	t.Helper()
	jp, err := tz.ByCode("jp")
	if err != nil {
		t.Fatal(err)
	}
	us, err := tz.ByCode("us-il")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.GenerateCrowd(7, synth.CrowdConfig{
		Name: "chaos-test",
		Groups: []synth.Group{
			{Region: jp, Users: 20, PostsPerUser: 50},
			{Region: us, Users: 12, PostsPerUser: 50},
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

// testReference memoizes one small synthetic reference for the whole
// test binary; the build is deterministic, so sharing it is free.
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

func geoJSON(t *testing.T, res *pipeline.Result) string {
	t.Helper()
	data, err := json.Marshal(res.Geo)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// assertNoPartials checks the file-level invariants after any failed
// attempt: no orphaned temp files anywhere in dir, the checkpoint — if it
// exists at all — is complete, valid JSON, never a torn write, and any
// .dcs snapshot in dir decodes cleanly (a snapshot either exists whole or
// not at all).
func assertNoPartials(t *testing.T, dir, ckptPath string) {
	t.Helper()
	leftovers, err := TempFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*.dcs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range snaps {
		data, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.ReadSnapshotBytes(data); err != nil {
			t.Fatalf("snapshot %s is torn: %v", snap, err)
		}
	}
	data, err := os.ReadFile(ckptPath)
	if errors.Is(err, os.ErrNotExist) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("checkpoint %s is torn: %q", ckptPath, data)
	}
}

// TestChaosPanicIsolation: an injected worker panic mid-profile-build
// surfaces as a typed *par.ShardPanicError — not a process death — and a
// fault-free rerun resumes from the checkpoint to the clean-run result.
func TestChaosPanicIsolation(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeCrowd(t, dir)
	base := pipeline.Config{
		TracePath:   tracePath,
		Reference:   testReference(t),
		ReferenceID: "chaos-ref",
	}
	clean, err := pipeline.Geolocate(base)
	if err != nil {
		t.Fatal(err)
	}
	want := geoJSON(t, clean)

	in := New(Config{Seed: 1, PanicProb: 1, MaxFaults: 1})
	cfg := base
	cfg.CheckpointPath = filepath.Join(dir, "stage.ckpt")
	cfg.Cells = in.Cells(nil)
	_, err = pipeline.Geolocate(cfg)
	var pe *par.ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v (%T), want *par.ShardPanicError", err, err)
	}
	if in.Stats().Panics != 1 {
		t.Errorf("stats = %s, want 1 panic", in.Stats())
	}
	assertNoPartials(t, dir, cfg.CheckpointPath)

	// Budget spent: the same injector now passes everything through, and
	// the rerun resumes the reference stage from the checkpoint.
	res, err := pipeline.Geolocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Restored {
		t.Error("rerun did not restore the checkpointed reference")
	}
	if got := geoJSON(t, res); got != want {
		t.Error("post-panic resumed run diverged from clean run")
	}
}

// TestChaosCorruptRows: injected row corruption kills a strict run, is
// fully quarantined in a lenient run, and lenient runs are deterministic.
func TestChaosCorruptRows(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeCrowd(t, dir)
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	in := New(Config{Seed: 2, CorruptProb: 0.02})
	damaged, hit := in.Corrupt(data)
	if hit == 0 {
		t.Fatal("fault plan corrupted no rows; raise CorruptProb")
	}
	if st := in.Stats(); st.CorruptRows != hit {
		t.Errorf("stats %s disagree with %d corrupted rows", st, hit)
	}
	damagedPath := filepath.Join(dir, "damaged.csv")
	if err := os.WriteFile(damagedPath, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.Config{
		TracePath:   damagedPath,
		Reference:   testReference(t),
		ReferenceID: "chaos-ref",
	}
	if _, err := pipeline.Geolocate(cfg); err == nil {
		t.Fatal("strict ingest of corrupted trace should fail")
	}
	cfg.Lenient = true
	first, err := pipeline.Geolocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Quarantine == nil || first.Quarantine.BadRows != hit {
		t.Fatalf("quarantined %+v, want the %d corrupted rows", first.Quarantine, hit)
	}
	second, err := pipeline.Geolocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if geoJSON(t, first) != geoJSON(t, second) {
		t.Error("lenient runs over the same damage disagree")
	}
}

// TestChaosSnapshotFaults: an injected I/O failure during the snapshot
// write fails the run without leaving any .dcs file — partial snapshots
// must never exist — and the fault-free retry writes it whole, after
// which runs load it and still match the clean result bit for bit.
func TestChaosSnapshotFaults(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeCrowd(t, dir)
	base := pipeline.Config{
		TracePath:   tracePath,
		Reference:   testReference(t),
		ReferenceID: "chaos-ref",
	}
	clean, err := pipeline.Geolocate(base)
	if err != nil {
		t.Fatal(err)
	}
	want := geoJSON(t, clean)

	in := New(Config{Seed: 6, CheckpointFailProb: 1, MaxFaults: 1})
	cfg := base
	cfg.SnapshotPath = filepath.Join(dir, "crowd.dcs")
	cfg.CheckpointHook = in.Hook()
	if _, err := pipeline.Geolocate(cfg); err == nil {
		t.Fatal("run with an injected snapshot-write failure should fail")
	}
	if in.Stats().CheckpointFails != 1 {
		t.Errorf("stats = %s, want 1 checkpoint fail", in.Stats())
	}
	if _, err := os.Stat(cfg.SnapshotPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed write left a snapshot behind (stat err %v)", err)
	}
	assertNoPartials(t, dir, "")

	// Budget spent: the retry ingests the CSV and installs the snapshot.
	res, err := pipeline.Geolocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotWritten || res.SnapshotLoaded {
		t.Errorf("retry: written=%v loaded=%v, want a fresh snapshot write", res.SnapshotWritten, res.SnapshotLoaded)
	}
	if got := geoJSON(t, res); got != want {
		t.Error("snapshot-writing run diverged from clean run")
	}
	assertNoPartials(t, dir, "")

	// And the next run serves the trace from the snapshot, identically.
	res, err = pipeline.Geolocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotLoaded || res.SnapshotWritten {
		t.Errorf("third run: written=%v loaded=%v, want a snapshot load", res.SnapshotWritten, res.SnapshotLoaded)
	}
	if got := geoJSON(t, res); got != want {
		t.Error("snapshot-loaded run diverged from clean run")
	}
}

// TestChaosGauntlet is the composed harness: panics, checkpoint-write
// failures, and mid-stage cancellations all fire against checkpointed
// runs, across several seeds. Whatever fails, no partial file ever
// appears, and the attempt that finally succeeds is bit-identical to the
// fault-free run.
func TestChaosGauntlet(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeCrowd(t, dir)
	base := pipeline.Config{
		TracePath:   tracePath,
		Reference:   testReference(t),
		ReferenceID: "chaos-ref",
	}
	clean, err := pipeline.Geolocate(base)
	if err != nil {
		t.Fatal(err)
	}
	want := geoJSON(t, clean)

	totalFaults := 0
	for seed := int64(1); seed <= 5; seed++ {
		in := New(Config{
			Seed:               seed,
			PanicProb:          0.001,
			CheckpointFailProb: 0.4,
			CancelEvery:        3,
			MaxFaults:          4,
		})
		ckpt := filepath.Join(dir, "gauntlet.ckpt")
		snap := filepath.Join(dir, "gauntlet.dcs")
		os.Remove(ckpt)
		os.Remove(snap)
		cfg := base
		cfg.CheckpointPath = ckpt
		cfg.SnapshotPath = snap
		cfg.Cells = in.Cells(nil)
		cfg.CheckpointHook = in.Hook()

		succeeded := false
		const maxAttempts = 24
		for attempt := 0; attempt < maxAttempts; attempt++ {
			cfg.Context = in.Context(context.Background())
			res, err := pipeline.Geolocate(cfg)
			if err != nil {
				assertNoPartials(t, dir, ckpt)
				continue
			}
			if got := geoJSON(t, res); got != want {
				t.Fatalf("seed %d attempt %d: recovered run diverged from clean run\n%s\nvs\n%s",
					seed, attempt, got, want)
			}
			succeeded = true
			break
		}
		if !succeeded {
			t.Fatalf("seed %d: no attempt out of %d succeeded (%s)", seed, maxAttempts, in.Stats())
		}
		assertNoPartials(t, dir, ckpt)
		totalFaults += in.Stats().Total()
	}
	if totalFaults == 0 {
		t.Fatal("gauntlet injected no faults at all; the harness is not exercising anything")
	}
}

// TestChaosContextBudget: the poll-counting context trips only while the
// fault budget lasts, so retry loops always converge.
func TestChaosContextBudget(t *testing.T) {
	t.Parallel()
	in := New(Config{Seed: 3, CancelEvery: 2, MaxFaults: 1})
	ctx := in.Context(context.Background())
	if err := ctx.Err(); err != nil {
		t.Fatalf("first poll tripped: %v", err)
	}
	if err := ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("second poll did not trip: %v", err)
	}
	select {
	case <-ctx.Done():
	default:
		t.Error("Done channel not closed after trip")
	}
	// Budget spent: a fresh context never trips again.
	next := in.Context(context.Background())
	for i := 0; i < 10; i++ {
		if err := next.Err(); err != nil {
			t.Fatalf("poll %d tripped after budget exhausted: %v", i, err)
		}
	}
	if in.Stats().Cancels != 1 {
		t.Errorf("stats = %s, want exactly 1 cancel", in.Stats())
	}
	// CancelEvery 0 passes the parent through untouched.
	plain := New(Config{Seed: 4}).Context(nil)
	if plain.Err() != nil || plain.Done() != context.Background().Done() {
		t.Error("disabled cancellation should return the parent context")
	}
}
