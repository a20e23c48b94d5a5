package pipeline

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// chainFixture builds a small well-formed chain by the same calls the
// pipeline uses.
func chainFixture(t *testing.T) *Provenance {
	t.Helper()
	p := &Provenance{
		Version: provenanceVersion,
		Dataset: DatasetID{Name: "fixture", Posts: 42, SHA256: strings.Repeat("ab", 32)},
		Params:  ProvenanceParams{ReferenceID: "test-ref", MinPosts: 2, Margins: true},
	}
	if err := p.addRecord("dataset", p.Dataset.SHA256); err != nil {
		t.Fatal(err)
	}
	if err := p.addJSON("placement", map[string]int{"ux": -3, "uy": 9}); err != nil {
		t.Fatal(err)
	}
	if err := p.addJSON("em-fit", struct{ K int }{2}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCheckChainAcceptsIntactChain(t *testing.T) {
	t.Parallel()
	p := chainFixture(t)
	if err := p.CheckChain(); err != nil {
		t.Fatalf("intact chain rejected: %v", err)
	}
	// Records link: every Prev is the predecessor's Hash.
	for i := 1; i < len(p.Records); i++ {
		if p.Records[i].Prev != p.Records[i-1].Hash {
			t.Fatalf("record %d does not link to predecessor", i)
		}
	}
}

// TestCheckChainRejectsTamper flips one field at a time and demands the
// chain fails closed every time — including header fields, which anchor
// the first record's Prev.
func TestCheckChainRejectsTamper(t *testing.T) {
	t.Parallel()
	tampers := map[string]func(*Provenance){
		"version":      func(p *Provenance) { p.Version++ },
		"dataset-name": func(p *Provenance) { p.Dataset.Name = "other" },
		"dataset-sha":  func(p *Provenance) { p.Dataset.SHA256 = "00" + p.Dataset.SHA256[2:] },
		"dataset-size": func(p *Provenance) { p.Dataset.Posts++ },
		"param-ref":    func(p *Provenance) { p.Params.ReferenceID = "evil-ref" },
		"param-flag":   func(p *Provenance) { p.Params.Margins = false },
		"stage-name":   func(p *Provenance) { p.Records[1].Stage = "Placement" },
		"payload":      func(p *Provenance) { p.Records[1].Payload = flipHex(p.Records[1].Payload) },
		"prev":         func(p *Provenance) { p.Records[2].Prev = flipHex(p.Records[2].Prev) },
		"hash":         func(p *Provenance) { p.Records[2].Hash = flipHex(p.Records[2].Hash) },
		"drop-record":  func(p *Provenance) { p.Records = p.Records[:0] },
		"swap-records": func(p *Provenance) { p.Records[0], p.Records[1] = p.Records[1], p.Records[0] },
	}
	for name, tamper := range tampers {
		p := chainFixture(t)
		tamper(p)
		if err := p.CheckChain(); err == nil {
			t.Errorf("%s tamper passed CheckChain", name)
		}
	}
	var nilProv *Provenance
	if err := nilProv.CheckChain(); err == nil {
		t.Error("nil provenance passed CheckChain")
	}
}

// flipHex changes the first hex character of a hash string.
func flipHex(s string) string {
	if s == "" {
		return "0"
	}
	c := byte('0')
	if s[0] == '0' {
		c = '1'
	}
	return string(c) + s[1:]
}

// TestProvenanceStableAcrossResume: the chain a checkpoint-resumed run
// emits is record-for-record identical to a clean run's — the hashed
// payloads are the restored artifacts, not re-derived lookalikes.
func TestProvenanceStableAcrossResume(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeCrowd(t, dir)
	base := Config{
		TracePath:           tracePath,
		Reference:           testReference(t),
		ReferenceID:         "test-ref",
		Margins:             true,
		BootstrapReplicates: 8,
		BootstrapSeed:       3,
		Provenance:          true,
	}
	clean, err := Geolocate(base)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Provenance == nil {
		t.Fatal("provenance requested but absent")
	}
	if err := clean.Provenance.CheckChain(); err != nil {
		t.Fatalf("clean chain does not verify: %v", err)
	}
	wantStages := []string{"dataset", "reference", "profile-build", "polish", "placement", "em-fit"}
	if len(clean.Provenance.Records) != len(wantStages) {
		t.Fatalf("chained %d records, want %d", len(clean.Provenance.Records), len(wantStages))
	}
	for i, s := range wantStages {
		if clean.Provenance.Records[i].Stage != s {
			t.Fatalf("record %d stage %q, want %q", i, clean.Provenance.Records[i].Stage, s)
		}
	}

	ckCfg := base
	ckCfg.CheckpointPath = filepath.Join(dir, "stage.ckpt")
	if _, err := Geolocate(ckCfg); err != nil {
		t.Fatal(err)
	}
	resumed, err := Geolocate(ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Restored {
		t.Fatal("second checkpointed run restored nothing")
	}
	if !reflect.DeepEqual(resumed.Provenance, clean.Provenance) {
		t.Errorf("resumed chain diverged from clean chain:\n%+v\nvs\n%+v", resumed.Provenance, clean.Provenance)
	}

	// The full report document is byte-identical too.
	cleanDoc, err := (&Report{Geolocation: clean.Geo, Provenance: clean.Provenance}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	resumedDoc, err := (&Report{Geolocation: resumed.Geo, Provenance: resumed.Provenance}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(cleanDoc) != string(resumedDoc) {
		t.Error("resumed report document is not byte-identical to clean run")
	}
}

// TestProvenanceSkipPolishDropsRecord: with polish disabled the chain
// must not carry a polish record, and the run still verifies.
func TestProvenanceSkipPolishDropsRecord(t *testing.T) {
	dir := t.TempDir()
	res, err := Geolocate(Config{
		TracePath:   writeCrowd(t, dir),
		Reference:   testReference(t),
		ReferenceID: "test-ref",
		SkipPolish:  true,
		Provenance:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Provenance.Records {
		if rec.Stage == "polish" {
			t.Fatal("skip-polish run chained a polish record")
		}
	}
	if err := res.Provenance.CheckChain(); err != nil {
		t.Fatal(err)
	}
}
