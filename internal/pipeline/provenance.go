package pipeline

// Hash-chained provenance (ISSUE 10): every report can carry a "provenance"
// section that chains the run's artifacts — canonical .dcs snapshot bytes,
// reference profile, per-user profiles, polish outcome, placement, and the
// final fitted geolocation — through SHA-256 records, each record hashing
// its predecessor, anchored in a header that names the dataset and every
// parameter the output depends on. The shape follows the doublezero
// geolocation-verification RFCs: a published location claim is only worth
// trusting if an independent party can replay it from the referenced data
// and check every intermediate hash.
//
// Two properties matter for the committed-fixture round trip:
//
//   - no filesystem paths ever enter hashed content — the dataset identity
//     is the canonical snapshot hash plus name and post count, so a fixture
//     verifies from any directory;
//   - every hashed payload is the canonical JSON (json.Marshal: map keys
//     sorted, float64 shortest round-trip) of the run's own artifacts; a
//     resumed run restores only the reference, which JSON round-trips
//     exactly, so fresh and checkpoint-restored runs chain to identical
//     records.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/trace"
)

// provenanceVersion guards the record layout; CheckChain rejects other
// versions so a verifier never silently mis-hashes a future format.
const provenanceVersion = 1

// DatasetID is the content identity of the input dataset: the SHA-256 of
// its canonical .dcs snapshot serialization (one dataset, one byte
// representation) plus human-readable name and size. No paths.
type DatasetID struct {
	Name   string `json:"name"`
	Posts  int    `json:"posts"`
	SHA256 string `json:"sha256"`
}

// ProvenanceParams pins every run parameter the chained artifacts depend
// on, so a verifier can replay the pipeline without guessing flags.
type ProvenanceParams struct {
	ReferenceID         string  `json:"reference_id"`
	MinPosts            int     `json:"min_posts"`
	SkipPolish          bool    `json:"skip_polish,omitempty"`
	Margins             bool    `json:"margins,omitempty"`
	BootstrapReplicates int     `json:"bootstrap_replicates,omitempty"`
	BootstrapSeed       int64   `json:"bootstrap_seed,omitempty"`
	BootstrapLevel      float64 `json:"bootstrap_level,omitempty"`
}

// ProvenanceRecord is one link of the chain. Hash covers (Stage, Payload,
// Prev), and Prev is the previous record's Hash (the header hash for the
// first record), so flipping any byte of any record — or of the header —
// breaks verification at or after the flip.
type ProvenanceRecord struct {
	Stage   string `json:"stage"`
	Payload string `json:"payload_sha256"`
	Prev    string `json:"prev"`
	Hash    string `json:"hash"`
}

// Provenance is the report's provenance section.
type Provenance struct {
	Version int                `json:"version"`
	Dataset DatasetID          `json:"dataset"`
	Params  ProvenanceParams   `json:"params"`
	Records []ProvenanceRecord `json:"records"`
}

// hashBytes is the hex SHA-256 of raw bytes.
func hashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// hashJSON hashes the canonical JSON encoding of v. json.Marshal sorts map
// keys and renders float64 in shortest round-trip form, so equal Go values
// always hash equal — including values restored from a JSON checkpoint.
func hashJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("pipeline: encode provenance payload: %w", err)
	}
	return hashBytes(data), nil
}

// HashDataset is the canonical dataset content hash: the SHA-256 of the
// dataset's .dcs snapshot serialization. Computed from the in-memory
// dataset, so it is identical whether the run ingested a CSV or loaded the
// snapshot file the hash describes.
func HashDataset(ds *trace.Dataset) (string, error) {
	h := sha256.New()
	if err := ds.WriteSnapshot(h); err != nil {
		return "", fmt.Errorf("pipeline: hash dataset: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// headerHash anchors the chain: the first record's Prev is the hash of the
// canonical header (version, dataset identity, parameters), so tampering
// with any of them orphans the whole chain.
func (p *Provenance) headerHash() (string, error) {
	return hashJSON(struct {
		Version int              `json:"version"`
		Dataset DatasetID        `json:"dataset"`
		Params  ProvenanceParams `json:"params"`
	}{p.Version, p.Dataset, p.Params})
}

// recordHash seals one record over its stage, payload hash, and
// predecessor hash.
func recordHash(stage, payload, prev string) (string, error) {
	return hashJSON(struct {
		Stage   string `json:"stage"`
		Payload string `json:"payload_sha256"`
		Prev    string `json:"prev"`
	}{stage, payload, prev})
}

// addRecord appends a chained record whose payload hash is already known.
func (p *Provenance) addRecord(stage, payload string) error {
	prev := ""
	if n := len(p.Records); n > 0 {
		prev = p.Records[n-1].Hash
	} else {
		var err error
		if prev, err = p.headerHash(); err != nil {
			return err
		}
	}
	h, err := recordHash(stage, payload, prev)
	if err != nil {
		return err
	}
	p.Records = append(p.Records, ProvenanceRecord{Stage: stage, Payload: payload, Prev: prev, Hash: h})
	return nil
}

// addJSON appends a chained record for a stage artifact, hashing its
// canonical JSON encoding.
func (p *Provenance) addJSON(stage string, artifact any) error {
	payload, err := hashJSON(artifact)
	if err != nil {
		return err
	}
	return p.addRecord(stage, payload)
}

// CheckChain verifies the internal hash chain: the header hash anchors the
// first record, every record's Hash re-derives from its content, and every
// Prev equals the predecessor's Hash. It inspects no artifacts — a chain
// can be checked from the report alone — so it catches tampering *inside*
// the provenance section; Verify's replay catches tampering anywhere else.
func (p *Provenance) CheckChain() error {
	if p == nil {
		return fmt.Errorf("pipeline: report carries no provenance section")
	}
	if p.Version != provenanceVersion {
		return fmt.Errorf("pipeline: provenance version %d, want %d", p.Version, provenanceVersion)
	}
	if len(p.Records) == 0 {
		return fmt.Errorf("pipeline: provenance chain is empty")
	}
	prev, err := p.headerHash()
	if err != nil {
		return err
	}
	for i, rec := range p.Records {
		if rec.Prev != prev {
			return fmt.Errorf("pipeline: provenance record %d (%s): prev hash %.12s does not chain to predecessor %.12s",
				i, rec.Stage, rec.Prev, prev)
		}
		want, err := recordHash(rec.Stage, rec.Payload, rec.Prev)
		if err != nil {
			return err
		}
		if rec.Hash != want {
			return fmt.Errorf("pipeline: provenance record %d (%s): hash %.12s does not match content (want %.12s)",
				i, rec.Stage, rec.Hash, want)
		}
		prev = rec.Hash
	}
	return nil
}

// Report is the on-disk report document `darkcrowd geolocate -out` writes
// and `darkcrowd verify` replays. The embedded geolocation serializes
// inline, so with provenance off the document is byte-identical to the
// pre-provenance report layout.
type Report struct {
	*geoloc.Geolocation
	Provenance *Provenance `json:"provenance,omitempty"`
}

// EncodeReport renders the canonical report bytes: two-space-indented JSON
// plus a trailing newline, exactly what the CLI writes and exactly what
// Verify regenerates for the byte-identical comparison.
func (r *Report) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("pipeline: encode report: %w", err)
	}
	return append(data, '\n'), nil
}
