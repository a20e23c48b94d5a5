package pipeline

// Report verification (ISSUE 10): `darkcrowd verify` replays a report from
// its referenced snapshot and demands (1) an intact internal hash chain,
// (2) a snapshot whose canonical content hash matches the chained dataset
// identity, (3) stage-by-stage agreement between the replayed chain and the
// report's chain, and (4) byte-identical regeneration of the whole report
// document. Any single flipped byte — in the provenance section, in the
// geolocation numbers, even in JSON whitespace — fails at least one check.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
)

// SynthReferenceID names a synthetic reference build; the matching loader
// is SynthReference. The CLI uses this ID for -seed/-twitter-scale runs,
// and Verify parses it back to rebuild the identical reference.
func SynthReferenceID(seed int64, scale int) string {
	return fmt.Sprintf("synth:seed=%d,scale=%d", seed, scale)
}

// SynthReference builds the generic reference profile from the synthetic
// Twitter stand-in — the reference build behind "synth:" reference IDs.
func SynthReference(seed int64, scale, workers int) (*profile.GenericResult, error) {
	twitter, err := synth.TwitterDataset(seed, synth.TwitterOptions{Scale: scale})
	if err != nil {
		return nil, err
	}
	return profile.BuildGeneric(twitter, profile.GenericOptions{Parallelism: workers})
}

// ParseSynthReferenceID inverts SynthReferenceID. It accepts only the
// exact form SynthReferenceID writes, so every ID it accepts names the
// build Verify rebuilds.
func ParseSynthReferenceID(id string) (seed int64, scale int, ok bool) {
	rest, found := strings.CutPrefix(id, "synth:")
	if !found {
		return 0, 0, false
	}
	if n, err := fmt.Sscanf(rest, "seed=%d,scale=%d", &seed, &scale); err != nil || n != 2 || SynthReferenceID(seed, scale) != id {
		return 0, 0, false
	}
	return seed, scale, true
}

// ErrReferenceMismatch is wrapped by Verify's error when the reference
// file passed for a report named by content ("sha256:" ID) has another
// digest: the replay would run against a reference the report does not
// name, so Verify fails before it.
var ErrReferenceMismatch = errors.New("pipeline: reference file does not match the report's reference ID")

// VerifyOptions configures Verify.
type VerifyOptions struct {
	// SnapshotPath is the .dcs snapshot the report claims to describe.
	// Required.
	SnapshotPath string
	// Reference, when non-nil, resolves non-"synth:" reference IDs to a
	// loader of the reference file passed for the replay; "synth:" IDs are
	// rebuilt internally. A "sha256:" ID accepts only a file with that
	// content digest. A "file:" ID, which older reports carry, accepts the
	// file as given. Verification of a file-reference report without a
	// resolver fails with an instructive error.
	Reference func(refID string) (func() (*profile.GenericResult, error), error)
	// Workers sets the replay parallelism (0 = all cores); the replayed
	// output is identical for every setting.
	Workers int
	// Context cancels the replay; Obs observes it. Both optional.
	Obs *obs.Observer
}

// VerifyResult summarizes a successful verification.
type VerifyResult struct {
	// Posts and Records echo what was verified.
	Posts   int
	Records int
}

// Verify checks a report document against its snapshot. reportBytes is the
// exact on-disk report (the byte-identity check compares against it
// verbatim). It returns nil error only when every check passes.
func Verify(reportBytes []byte, opts VerifyOptions) (*VerifyResult, error) {
	var rep Report
	if err := json.Unmarshal(reportBytes, &rep); err != nil {
		return nil, fmt.Errorf("pipeline: parse report: %w", err)
	}
	if rep.Provenance == nil {
		return nil, errors.New("pipeline: report carries no provenance section; regenerate it with -provenance")
	}
	prov := rep.Provenance
	if err := prov.CheckChain(); err != nil {
		return nil, fmt.Errorf("hash chain broken: %w", err)
	}

	if opts.SnapshotPath == "" {
		return nil, errors.New("pipeline: verify needs the report's snapshot")
	}
	snap, err := os.ReadFile(opts.SnapshotPath)
	if err != nil {
		return nil, fmt.Errorf("pipeline: open snapshot: %w", err)
	}
	ds, err := trace.ReadSnapshotBytes(snap)
	if err != nil {
		return nil, fmt.Errorf("pipeline: load snapshot %s: %w", opts.SnapshotPath, err)
	}
	dsHash, err := HashDataset(ds)
	if err != nil {
		return nil, err
	}
	if dsHash != prov.Dataset.SHA256 {
		return nil, fmt.Errorf("snapshot %s does not match the report's dataset: content hash %.12s, report chains %.12s",
			opts.SnapshotPath, dsHash, prov.Dataset.SHA256)
	}
	if ds.NumPosts() != prov.Dataset.Posts || ds.Name != prov.Dataset.Name {
		return nil, fmt.Errorf("snapshot identity mismatch: %q with %d posts, report claims %q with %d posts",
			ds.Name, ds.NumPosts(), prov.Dataset.Name, prov.Dataset.Posts)
	}

	// Rebuild the reference exactly as the original run did.
	var reference func() (*profile.GenericResult, error)
	refID := prov.Params.ReferenceID
	if seed, scale, ok := ParseSynthReferenceID(refID); ok {
		workers := opts.Workers
		reference = func() (*profile.GenericResult, error) {
			return SynthReference(seed, scale, workers)
		}
	} else if opts.Reference != nil {
		if reference, err = opts.Reference(refID); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("pipeline: cannot rebuild reference %q: pass the original reference file", refID)
	}
	if strings.HasPrefix(refID, "sha256:") {
		gen, err := reference()
		if err != nil {
			return nil, err
		}
		got, err := referenceDigestID(gen)
		if err != nil {
			return nil, err
		}
		if got != refID {
			return nil, fmt.Errorf("%w: file digest %.19s, report names %.19s", ErrReferenceMismatch, got, refID)
		}
		reference = func() (*profile.GenericResult, error) { return gen, nil }
	}

	// Replay the full pipeline from the snapshot with the chained
	// parameters. No CSV: the snapshot is authoritative.
	res, err := Geolocate(Config{
		SnapshotPath:        opts.SnapshotPath,
		Reference:           reference,
		ReferenceID:         refID,
		MinPosts:            prov.Params.MinPosts,
		SkipPolish:          prov.Params.SkipPolish,
		Margins:             prov.Params.Margins,
		BootstrapReplicates: prov.Params.BootstrapReplicates,
		BootstrapSeed:       prov.Params.BootstrapSeed,
		BootstrapLevel:      prov.Params.BootstrapLevel,
		Workers:             opts.Workers,
		Provenance:          true,
		Obs:                 opts.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: replay: %w", err)
	}

	// Stage-by-stage chain comparison localizes a divergence before the
	// whole-document check reports it.
	replayed := res.Provenance
	if len(replayed.Records) != len(prov.Records) {
		return nil, fmt.Errorf("replay produced %d chain records, report carries %d", len(replayed.Records), len(prov.Records))
	}
	for i, got := range replayed.Records {
		want := prov.Records[i]
		if got.Stage != want.Stage {
			return nil, fmt.Errorf("chain record %d: replay reached stage %q, report chains %q", i, got.Stage, want.Stage)
		}
		if got.Payload != want.Payload {
			return nil, fmt.Errorf("stage %q does not replay: artifact hash %.12s, report chains %.12s", got.Stage, got.Payload, want.Payload)
		}
		if got.Hash != want.Hash {
			return nil, fmt.Errorf("stage %q: chain hash %.12s, report chains %.12s", got.Stage, got.Hash, want.Hash)
		}
	}

	// Finally: regenerating the report document must reproduce the input
	// byte for byte. This subsumes every field the stage hashes don't
	// cover (including the provenance section itself as serialized).
	regen, err := (&Report{Geolocation: res.Geo, Provenance: replayed}).Encode()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(regen, reportBytes) {
		return nil, errors.New("replayed report is not byte-identical to the input document")
	}
	return &VerifyResult{Posts: ds.NumPosts(), Records: len(prov.Records)}, nil
}
