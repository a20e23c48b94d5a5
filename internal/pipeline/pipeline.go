// Package pipeline stages the geolocate pipeline end to end — trace
// ingest, reference profile, per-user profile build, polish, EMD
// placement, EM mixture selection — with lenient ingest on top of the bare
// library calls: malformed trace rows are quarantined into a structured
// report (under a bad-row budget) instead of killing a crawl's worth of
// work.
//
// The generic reference profile is the one costly artifact built outside
// the crowd's own trace. A run takes it from Config.Reference, which may
// load a reference file saved by `darkcrowd reference`; every later stage
// is deterministic and cheap, so a run from a saved reference agrees with
// a run that rebuilds it bit for bit (Go's float64 JSON encoding restores
// every finite value of the reference exactly).
package pipeline

import (
	"context"
	"errors"
	"fmt"
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
	// Reference supplies the generic reference profile — built
	// synthetically or loaded from a file; the pipeline only dictates
	// when it runs. Required.
	Reference func() (*profile.GenericResult, error)
	// ReferenceID names the reference in the provenance header: a
	// reproducible build such as "synth:seed=2018,scale=40", never a path.
	// Empty names the reference by its content — "sha256:" plus the payload
	// hash of the chain's reference record — so a reference file verifies
	// from any directory.
	ReferenceID string
	// MinPosts is the active-user threshold (0: profile.DefaultMinPosts).
	MinPosts int
	// SkipPolish disables flat-profile removal.
	SkipPolish bool
	// Workers sets the worker count for every parallel stage, CSV parsing
	// included (0 = all cores). Output is identical for every setting, so
	// the provenance header does not record it.
	Workers int
	// Margins records each user's placement margin (best-vs-runner-up EMD
	// gap) into the placement and a MarginSummary into the geolocation.
	Margins bool
	// BootstrapReplicates, when positive, computes bootstrap confidence
	// intervals on the mixture components (geoloc.BootstrapMixtureCI) and
	// attaches them as Geo.Confidence. The intervals are a deterministic
	// function of (placement, mixture, replicates, seed, level).
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
	// unstaged pipeline emits, plus ingest.rows_quarantined. Observation
	// only.
	Obs *obs.Observer
	// WriteHook is the atomicio fault hook for the snapshot write — nil in
	// production, set by the chaos harness.
	WriteHook atomicio.Hook
	// Cells overrides the profile-build bucketing hook (nil = UTC cells).
	// The chaos harness wraps it to inject worker panics mid-stage; the
	// production CLI leaves it nil.
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
	// SnapshotLoaded reports that the dataset came from Config.SnapshotPath
	// instead of the CSV trace.
	SnapshotLoaded bool
	// SnapshotWritten reports that this run ingested the CSV and installed
	// a fresh snapshot at Config.SnapshotPath.
	SnapshotWritten bool
}

// stripReference keeps the aggregate profiles of a reference build, the
// only part the pipeline consults; the per-user map is dropped.
func stripReference(gen *profile.GenericResult) *profile.GenericResult {
	return &profile.GenericResult{
		Generic:     gen.Generic,
		PerRegion:   gen.PerRegion,
		ActiveUsers: gen.ActiveUsers,
	}
}

// referenceDigestID is the content ID of a reference that records no
// reproducible origin: "sha256:" plus the payload hash the provenance
// chain records for its reference stage.
func referenceDigestID(gen *profile.GenericResult) (string, error) {
	h, err := hashJSON(stripReference(gen))
	if err != nil {
		return "", err
	}
	return "sha256:" + h, nil
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
		ing, err := trace.IngestFile(cfg.TracePath, trace.IngestOptions{
			Lenient:    cfg.Lenient,
			MaxBadRows: cfg.MaxBadRows,
			Workers:    cfg.Workers,
		})
		if err != nil {
			lo.End()
			return nil, err
		}
		ds, quarantine = ing.Dataset, ing.Report
		if cfg.SnapshotPath != "" {
			err := atomicio.WriteFileHooked(cfg.SnapshotPath, ds.WriteSnapshot, cfg.WriteHook)
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

	if err := canceled(); err != nil {
		return nil, err
	}
	ro := o.Stage("reference")
	gen, err := cfg.Reference()
	ro.End()
	if err != nil {
		return nil, err
	}
	ref := stripReference(gen)

	if err := canceled(); err != nil {
		return nil, err
	}
	built, err := profile.BuildUserProfiles(ds, profile.BuildOptions{
		MinPosts:    cfg.MinPosts,
		Cells:       cfg.Cells,
		Parallelism: cfg.Workers,
		Context:     cfg.Context,
		Obs:         o,
	})
	if err != nil {
		return nil, err
	}

	if err := canceled(); err != nil {
		return nil, err
	}
	polished, geo, err := geoloc.LocateCrowd(built, ref.Generic, geoloc.LocateOptions{
		SkipPolish:  cfg.SkipPolish,
		Margins:     cfg.Margins,
		Parallelism: cfg.Workers,
		Context:     cfg.Context,
		Obs:         o,
	})
	if err != nil {
		return nil, err
	}
	res.PolishRemoved = len(polished.Removed)
	res.ActiveUsers = len(polished.Kept)
	res.Geo = geo

	if cfg.BootstrapReplicates > 0 {
		if err := canceled(); err != nil {
			return nil, err
		}
		ci, err := geoloc.BootstrapMixtureCI(geo.Placement, geo.Mixture, geoloc.BootstrapOptions{
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
		prov, err := buildProvenance(ds, cfg, ref, built, polished.Kept, res)
		if err != nil {
			return nil, err
		}
		res.Provenance = prov
	}
	return res, nil
}

// buildProvenance assembles the hash chain once every artifact is in hand.
// The chain is built at the end of the run but in stage order. ref is the
// stripped reference; built is the pre-polish profile map and kept the
// post-polish map actually placed. The dataset content hash is one pass
// over the columns, so only a run that asks for provenance pays for it.
func buildProvenance(ds *trace.Dataset, cfg Config, ref *profile.GenericResult, built, kept map[string]profile.Profile, res *Result) (*Provenance, error) {
	dsHash, err := HashDataset(ds)
	if err != nil {
		return nil, err
	}
	refID := cfg.ReferenceID
	if refID == "" {
		if refID, err = referenceDigestID(ref); err != nil {
			return nil, err
		}
	}
	prov := &Provenance{
		Version: provenanceVersion,
		Dataset: DatasetID{Name: ds.Name, Posts: ds.NumPosts(), SHA256: dsHash},
		Params: ProvenanceParams{
			ReferenceID:         refID,
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
	if err := prov.addJSON("reference", ref); err != nil {
		return nil, err
	}
	if err := prov.addJSON("profile-build", built); err != nil {
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
	if err := prov.addJSON("placement", res.Geo.Placement); err != nil {
		return nil, err
	}
	if err := prov.addJSON("em-fit", res.Geo); err != nil {
		return nil, err
	}
	return prov, nil
}
