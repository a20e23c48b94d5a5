// Package pipeline stages the geolocate pipeline end to end — trace
// ingest, reference profile, per-user profile build, polish, EMD
// placement, EM mixture selection — with two robustness layers the bare
// library calls don't have:
//
//   - lenient ingest: malformed trace rows are quarantined into a
//     structured report (under a bad-row budget) instead of killing a
//     crawl's worth of work;
//   - stage checkpoints: after each expensive stage the pipeline
//     atomically saves everything computed so far, so an interrupted run
//     resumes mid-pipeline and produces byte-identical final output.
//
// Every stage is deterministic, so a resumed run and a clean run agree
// bit for bit: checkpoints are JSON, and Go's float64 JSON encoding
// (shortest round-trip representation) restores every finite value
// exactly.
package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"darkcrowd/internal/atomicio"
	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/trace"
)

// Config parameterizes a staged geolocation run.
type Config struct {
	// TracePath is the input CSV trace.
	TracePath string
	// Lenient quarantines malformed trace rows instead of failing; the
	// report lands in Result.Quarantine.
	Lenient bool
	// MaxBadRows bounds the quarantine in lenient mode (<= 0: unlimited).
	MaxBadRows int
	// SnapshotPath, when non-empty, caches the ingested trace as a binary
	// columnar snapshot (.dcs). When the file exists it is authoritative:
	// the CSV is not re-read and the snapshot loads with O(1) parse work.
	// When it doesn't, the trace is ingested from TracePath and the
	// snapshot is written atomically next to the run. A snapshot carries
	// the post-quarantine dataset, so loads from it report no quarantine.
	SnapshotPath string
	// IngestWorkers sets the worker count for sharded CSV parsing
	// (0 = all cores). The parsed dataset is bit-identical for every
	// setting.
	IngestWorkers int
	// Reference supplies the generic reference profile — built
	// synthetically or loaded from a file; the pipeline only dictates
	// when it runs and how it is checkpointed. Required.
	Reference func() (*profile.GenericResult, error)
	// ReferenceID names the reference source (e.g. "file:ref.json" or
	// "synth:seed=2018,scale=40"). It is part of the checkpoint
	// fingerprint: a checkpoint taken against one reference must not be
	// resumed against another.
	ReferenceID string
	// MinPosts is the active-user threshold (0: profile.DefaultMinPosts).
	MinPosts int
	// SkipPolish disables flat-profile removal.
	SkipPolish bool
	// Workers sets the worker count for every parallel stage (0 = all
	// cores). Output is identical for every setting, so it is NOT part of
	// the checkpoint fingerprint — a checkpoint taken with 8 workers
	// resumes fine with 1.
	Workers int
	// CheckpointPath enables stage checkpointing (empty = off). The file
	// is rewritten atomically after each completed expensive stage.
	CheckpointPath string
	// Margins records each user's placement margin (best-vs-runner-up EMD
	// gap) into the placement and a MarginSummary into the geolocation.
	// Margins change the placement's serialized content, so the flag is
	// part of the checkpoint fingerprint.
	Margins bool
	// BootstrapReplicates, when positive, computes bootstrap confidence
	// intervals on the mixture components (geoloc.BootstrapMixtureCI) and
	// attaches them as Geo.Confidence. The intervals are a deterministic
	// function of (placement, mixture, replicates, seed, level), so they
	// are recomputed on checkpoint resume rather than checkpointed.
	BootstrapReplicates int
	// BootstrapSeed seeds the bootstrap resampling RNG.
	BootstrapSeed int64
	// BootstrapLevel is the two-sided confidence level (0: 0.95).
	BootstrapLevel float64
	// Provenance, when set, emits the hash-chained provenance section
	// (Result.Provenance): dataset snapshot hash, then one chained record
	// per stage artifact through to the final report.
	Provenance bool
	// Context, when non-nil, cancels the run between and inside stages.
	Context context.Context
	// Obs, when non-nil, receives the per-stage spans and metrics the
	// unstaged pipeline emits, plus ingest.rows_quarantined and
	// checkpoint restore events. Observation only.
	Obs *obs.Observer
	// CheckpointHook is the atomicio fault hook for checkpoint writes —
	// nil in production, set by the chaos harness.
	CheckpointHook atomicio.Hook
	// Cells overrides the profile-build bucketing hook (nil = UTC cells).
	// The chaos harness wraps it to inject worker panics mid-stage; the
	// production CLI leaves it nil. It is not part of the checkpoint
	// fingerprint, so overrides that change the output must not share a
	// checkpoint with runs that don't.
	Cells profile.CellOf
}

// Result is the outcome of a staged geolocation run.
type Result struct {
	// Dataset is the ingested (possibly quarantine-filtered) trace.
	Dataset *trace.Dataset
	// Quarantine is the lenient-mode report; nil in strict mode.
	Quarantine *trace.QuarantineReport
	// ActiveUsers counts the profiles that reached placement.
	ActiveUsers int
	// PolishRemoved counts flat profiles dropped by polishing.
	PolishRemoved int
	// Geo is the geolocation: placement, mixture, components, metrics,
	// plus Confidence when Config.BootstrapReplicates asked for it.
	Geo *geoloc.Geolocation
	// Provenance is the hash-chained measurement record; nil unless
	// Config.Provenance was set.
	Provenance *Provenance
	// Restored lists the stages that came from the checkpoint instead of
	// being recomputed, in pipeline order.
	Restored []string
	// SnapshotLoaded reports that the dataset came from Config.SnapshotPath
	// instead of the CSV trace.
	SnapshotLoaded bool
	// SnapshotWritten reports that this run ingested the CSV and installed
	// a fresh snapshot at Config.SnapshotPath.
	SnapshotWritten bool
}

// checkpointVersion guards the on-disk format; bump it when the layout
// changes so stale snapshots fail loudly instead of resuming garbage.
// v2: placements may carry per-user margins and the fingerprint covers the
// margins flag. v3: the fingerprint is checkpointKey (the dataset's .dcs
// content hash plus the stage settings), replacing an FNV-1a over rows
// whose UnixNano timestamps wrapped outside 1678–2262.
const checkpointVersion = 3

// ErrCheckpointVersion is wrapped by the error for a checkpoint written by
// another format version: it fails closed and is never resumed.
var ErrCheckpointVersion = errors.New("pipeline: checkpoint version mismatch")

// ErrCheckpointMismatch is wrapped by the error for a checkpoint taken for
// different inputs or settings (its fingerprint differs).
var ErrCheckpointMismatch = errors.New("pipeline: checkpoint fingerprint mismatch")

// checkpointError carries a checkpoint failure's full message and unwraps
// to its sentinel.
type checkpointError struct {
	msg  string
	kind error
}

func (e *checkpointError) Error() string { return e.msg }
func (e *checkpointError) Unwrap() error { return e.kind }

// checkpoint is the cumulative snapshot of a staged run: each field is
// nil until its stage completes, and the whole struct is rewritten
// atomically after every completed stage. All stage outputs are pure
// functions of the fingerprinted inputs, so restoring any prefix of them
// yields the same final output as recomputing it.
type checkpoint struct {
	Version     int                        `json:"version"`
	Fingerprint string                     `json:"fingerprint"`
	Reference   *profile.GenericResult     `json:"reference,omitempty"`
	Profiles    map[string]profile.Profile `json:"profiles,omitempty"`
	Placement   *geoloc.Placement          `json:"placement,omitempty"`
	Geo         *geoloc.Geolocation        `json:"geo,omitempty"`
}

// checkpointKey is the checkpoint fingerprint: a digest of everything the
// pipeline's output depends on — the dataset content hash (HashDataset,
// which covers the name, every user ID and every exact instant), the
// reference identity, and the stage settings. Worker counts are
// deliberately excluded — the output is identical for every parallelism
// setting.
func checkpointKey(dsHash string, cfg Config) (string, error) {
	return hashJSON(struct {
		Dataset    string `json:"dataset_sha256"`
		Reference  string `json:"reference"`
		MinPosts   int    `json:"min_posts"`
		SkipPolish bool   `json:"skip_polish"`
		Margins    bool   `json:"margins"`
	}{dsHash, cfg.ReferenceID, cfg.MinPosts, cfg.SkipPolish, cfg.Margins})
}

// loadCheckpoint reads a snapshot, returning (nil, nil) when none exists
// yet. A snapshot for different inputs or settings is an error, not a
// silent fresh start: resuming the wrong run corrupts the result.
func loadCheckpoint(path, fp string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: read checkpoint %s: %w", path, err)
	}
	var ck checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("pipeline: parse checkpoint %s: %w", path, err)
	}
	if ck.Version != checkpointVersion {
		return nil, &checkpointError{fmt.Sprintf("pipeline: checkpoint %s has version %d, want %d",
			path, ck.Version, checkpointVersion), ErrCheckpointVersion}
	}
	if ck.Fingerprint != fp {
		return nil, &checkpointError{fmt.Sprintf("pipeline: checkpoint %s was taken for different inputs or settings (fingerprint %s, want %s); delete it to start over",
			path, ck.Fingerprint, fp), ErrCheckpointMismatch}
	}
	return &ck, nil
}

// Geolocate runs the staged pipeline. The stage names and metrics it
// emits are exactly those of the unstaged CLI path (load-trace,
// reference, profile-build, polish, placement, em-select), so dashboards
// and the -trace tree are unaffected by the staging.
func Geolocate(cfg Config) (*Result, error) {
	if cfg.Reference == nil {
		return nil, errors.New("pipeline: Config.Reference is required")
	}
	o := cfg.Obs
	canceled := func() error {
		if cfg.Context == nil {
			return nil
		}
		return cfg.Context.Err()
	}

	lo := o.Stage("load-trace")
	var (
		err        error
		ds         *trace.Dataset
		quarantine *trace.QuarantineReport
		cells      *trace.UserCells

		snapLoaded, snapWritten bool
	)
	if cfg.SnapshotPath != "" {
		snap, err := os.ReadFile(cfg.SnapshotPath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// No snapshot yet: ingest the CSV below and install one.
		case err != nil:
			lo.End()
			return nil, fmt.Errorf("open snapshot: %w", err)
		default:
			ds, err = trace.ReadSnapshotBytes(snap)
			if err != nil {
				lo.End()
				return nil, fmt.Errorf("pipeline: load snapshot %s: %w (delete it to re-ingest from the CSV)", cfg.SnapshotPath, err)
			}
			snapLoaded = true
			lo.Counter("ingest.snapshot_loads").Add(1)
		}
	}
	if ds == nil {
		data, err := os.ReadFile(cfg.TracePath)
		if err != nil {
			lo.End()
			return nil, fmt.Errorf("open trace: %w", err)
		}
		ing, err := trace.IngestCSV(cfg.TracePath, data, trace.IngestOptions{
			Lenient:    cfg.Lenient,
			MaxBadRows: cfg.MaxBadRows,
			Workers:    cfg.IngestWorkers,
			// The fused profile build consumes ingest-time cells, but only
			// in the default UTC frame; a Cells override needs timestamps.
			CollectCells: cfg.Cells == nil,
		})
		if err != nil {
			lo.End()
			return nil, err
		}
		ds, quarantine, cells = ing.Dataset, ing.Report, ing.Cells
		if cfg.SnapshotPath != "" {
			err := atomicio.WriteFileHooked(cfg.SnapshotPath, ds.WriteSnapshot, cfg.CheckpointHook)
			if err != nil {
				lo.End()
				return nil, fmt.Errorf("pipeline: save snapshot: %w", err)
			}
			snapWritten = true
			lo.Counter("ingest.snapshot_writes").Add(1)
		}
	}
	lo.AddItems(int64(ds.NumPosts()))
	lo.Counter("trace.posts_loaded").Add(int64(ds.NumPosts()))
	if quarantine != nil {
		lo.Counter("ingest.rows_quarantined").Add(int64(quarantine.BadRows))
		if !quarantine.Empty() {
			lo.Eventf("load-trace", "quarantined malformed rows", "bad_rows", quarantine.BadRows)
		}
	}
	lo.End()
	res := &Result{Dataset: ds, Quarantine: quarantine, SnapshotLoaded: snapLoaded, SnapshotWritten: snapWritten}

	// The dataset content hash keys the checkpoint and anchors the
	// provenance chain; it is one pass over the columns, so it is computed
	// only when one of them asks, and once.
	var dsHash, fp string
	if cfg.CheckpointPath != "" || cfg.Provenance {
		if dsHash, err = HashDataset(ds); err != nil {
			return nil, err
		}
	}
	var ck *checkpoint
	if cfg.CheckpointPath != "" {
		if fp, err = checkpointKey(dsHash, cfg); err != nil {
			return nil, err
		}
		ck, err = loadCheckpoint(cfg.CheckpointPath, fp)
		if err != nil {
			return nil, err
		}
	}
	if ck == nil {
		ck = &checkpoint{Version: checkpointVersion, Fingerprint: fp}
	}
	save := func() error {
		if cfg.CheckpointPath == "" {
			return nil
		}
		data, err := json.Marshal(ck)
		if err != nil {
			return fmt.Errorf("pipeline: encode checkpoint: %w", err)
		}
		err = atomicio.WriteFileHooked(cfg.CheckpointPath, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		}, cfg.CheckpointHook)
		if err != nil {
			return fmt.Errorf("pipeline: save checkpoint: %w", err)
		}
		return nil
	}
	restored := func(so *obs.Observer, stage string) {
		res.Restored = append(res.Restored, stage)
		so.Eventf(stage, "restored from checkpoint")
	}

	if err := canceled(); err != nil {
		return nil, err
	}
	ro := o.Stage("reference")
	var gen *profile.GenericResult
	if ck.Reference != nil {
		gen = ck.Reference
		restored(ro, "reference")
	} else {
		gen, err = cfg.Reference()
		if err != nil {
			ro.End()
			return nil, err
		}
		// The pipeline only ever consults the aggregate profiles; dropping
		// the per-user map keeps synthetic-reference checkpoints small.
		ck.Reference = &profile.GenericResult{
			Generic:     gen.Generic,
			PerRegion:   gen.PerRegion,
			ActiveUsers: gen.ActiveUsers,
		}
		if err := save(); err != nil {
			ro.End()
			return nil, err
		}
	}
	ro.End()

	if err := canceled(); err != nil {
		return nil, err
	}
	var profiles map[string]profile.Profile
	if ck.Profiles != nil {
		po := o.Stage("profile-build")
		profiles = ck.Profiles
		restored(po, "profile-build")
		po.End()
	} else {
		if cells != nil && cfg.Cells == nil {
			// Fresh sharded ingest: the cell keys accumulated during the
			// parse feed the profile build directly, skipping the per-post
			// timestamp→cell arithmetic. Bit-identical to the path below.
			profiles, err = profile.BuildUserProfilesFused(cells, profile.BuildOptions{
				MinPosts:    cfg.MinPosts,
				Parallelism: cfg.Workers,
				Context:     cfg.Context,
				Obs:         o,
			})
		} else {
			profiles, err = profile.BuildUserProfiles(ds, profile.BuildOptions{
				MinPosts:    cfg.MinPosts,
				Cells:       cfg.Cells,
				Parallelism: cfg.Workers,
				Context:     cfg.Context,
				Obs:         o,
			})
		}
		if err != nil {
			return nil, err
		}
		ck.Profiles = profiles
		if err := save(); err != nil {
			return nil, err
		}
	}

	// Polishing is cheap and deterministic, so it reruns on resume
	// instead of being checkpointed.
	if !cfg.SkipPolish {
		po := o.Stage("polish")
		polished, err := profile.Polish(profiles, gen.Generic, true)
		if err != nil {
			po.End()
			return nil, err
		}
		res.PolishRemoved = len(polished.Removed)
		profiles = polished.Kept
		po.AddItems(int64(len(polished.Kept)))
		po.Counter("polish.users_kept").Add(int64(len(polished.Kept)))
		po.Counter("polish.users_removed").Add(int64(len(polished.Removed)))
		po.End()
	}
	res.ActiveUsers = len(profiles)

	if err := canceled(); err != nil {
		return nil, err
	}
	var placement *geoloc.Placement
	if ck.Placement != nil {
		po := o.Stage("placement")
		placement = ck.Placement
		restored(po, "placement")
		po.End()
	} else {
		placement, err = geoloc.PlaceUsers(profiles, gen.Generic, geoloc.PlaceOptions{
			Parallelism: cfg.Workers,
			Context:     cfg.Context,
			Obs:         o,
			Margins:     cfg.Margins,
		})
		if err != nil {
			return nil, err
		}
		ck.Placement = placement
		if err := save(); err != nil {
			return nil, err
		}
	}

	if err := canceled(); err != nil {
		return nil, err
	}
	var geo *geoloc.Geolocation
	if ck.Geo != nil {
		eo := o.Stage("em-select")
		geo = ck.Geo
		restored(eo, "em-select")
		eo.End()
	} else {
		geo, err = geoloc.FitPlacement(placement, geoloc.GeolocateOptions{
			Place: geoloc.PlaceOptions{Parallelism: cfg.Workers},
			Obs:   o,
		})
		if err != nil {
			return nil, err
		}
		// The checkpoint is saved before the bootstrap attaches Confidence:
		// the intervals are a cheap deterministic function of the
		// checkpointed placement and mixture, so resumes recompute them
		// instead of trusting (and bloating) the checkpoint.
		ck.Geo = geo
		if err := save(); err != nil {
			return nil, err
		}
	}
	res.Geo = geo

	if cfg.BootstrapReplicates > 0 {
		if err := canceled(); err != nil {
			return nil, err
		}
		ci, err := geoloc.BootstrapMixtureCI(placement, geo.Mixture, geoloc.BootstrapOptions{
			Replicates:  cfg.BootstrapReplicates,
			Seed:        cfg.BootstrapSeed,
			Level:       cfg.BootstrapLevel,
			Parallelism: cfg.Workers,
			Context:     cfg.Context,
			Obs:         o,
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: bootstrap confidence: %w", err)
		}
		geo.Confidence = ci
	}

	if cfg.Provenance {
		prov, err := buildProvenance(ds, dsHash, cfg, ck, profiles, res)
		if err != nil {
			return nil, err
		}
		res.Provenance = prov
	}
	return res, nil
}

// buildProvenance assembles the hash chain once every artifact is in hand.
// The chain is built at the end of the run but in stage order, and every
// payload is an artifact the checkpoint round-trips (or a pure function of
// them), so a fresh run and a checkpoint-resumed run chain identically.
// dsHash is HashDataset(ds); kept is the post-polish profile map actually
// placed.
func buildProvenance(ds *trace.Dataset, dsHash string, cfg Config, ck *checkpoint, kept map[string]profile.Profile, res *Result) (*Provenance, error) {
	prov := &Provenance{
		Version: provenanceVersion,
		Dataset: DatasetID{Name: ds.Name, Posts: ds.NumPosts(), SHA256: dsHash},
		Params: ProvenanceParams{
			ReferenceID:         cfg.ReferenceID,
			MinPosts:            cfg.MinPosts,
			SkipPolish:          cfg.SkipPolish,
			Margins:             cfg.Margins,
			BootstrapReplicates: cfg.BootstrapReplicates,
			BootstrapSeed:       cfg.BootstrapSeed,
			BootstrapLevel:      cfg.BootstrapLevel,
		},
	}
	if err := prov.addRecord("dataset", dsHash); err != nil {
		return nil, err
	}
	if err := prov.addJSON("reference", ck.Reference); err != nil {
		return nil, err
	}
	if err := prov.addJSON("profile-build", ck.Profiles); err != nil {
		return nil, err
	}
	if !cfg.SkipPolish {
		err := prov.addJSON("polish", struct {
			Kept    map[string]profile.Profile `json:"kept"`
			Removed int                        `json:"removed"`
		}{kept, res.PolishRemoved})
		if err != nil {
			return nil, err
		}
	}
	if err := prov.addJSON("placement", ck.Placement); err != nil {
		return nil, err
	}
	if err := prov.addJSON("em-fit", res.Geo); err != nil {
		return nil, err
	}
	return prov, nil
}
