package trace

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to IngestCSV in strict and in lenient
// mode. Invariants:
//
//   - neither reader may ever panic, whatever the input;
//   - the lenient reader never keeps more rows than it saw, and its
//     quarantine sample never exceeds the cap;
//   - any input the strict reader accepts is a valid dataset, and encoding
//     it with WriteCSV and reading it back reproduces the posts exactly,
//     with the re-encoding byte-identical (WriteCSV output is a fixpoint).
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("user_id,time_rfc3339\nu1,2017-03-01T10:00:00Z\n"))
	f.Add([]byte("user_id,time_rfc3339\n\"u,1\",2017-03-01T10:00:00Z\nu2,2017-12-31T23:59:59Z\n"))
	f.Add([]byte("user_id,time_rfc3339\nu1,notatime\nu2,2017-03-01T10:00:00Z\n"))
	f.Add([]byte("user_id,time_rfc3339\nu1,2017-03-01T10:00:00+02:00\n"))
	f.Add([]byte("user_id,time_rfc3339\nabe,2021-03-04T05:06:07.25Z\nabe,2021-03-04T05:06:08Z\n"))
	f.Add([]byte("user_id,time_rfc3339"))
	f.Add([]byte(""))
	f.Add([]byte("\"\n\x00,"))
	// Lines the in-place line path must hand to the general handling.
	f.Add([]byte("user_id,time_rfc3339\nu\r1,2021-03-04T05:06:07Z\nu1,2021-03-04T05:06:08Z\n"))
	f.Add([]byte("user_id,time_rfc3339\nu1,2021-02-28T05:06:07Z\nu2,2021-02-28T24:06:07Z\nu3,2021-02-29T00:00:00Z\n"))
	f.Add([]byte("user_id,time_rfc3339\nu1,2021-03-04T05:60:07Z\nu2,2021-03-04T05:06:60Z\n"))
	f.Add([]byte("user_id,time_rfc3339\nu1,2021-03-04T05:06:07\nu2,2021-03-04T05:06:07.Z\n"))
	f.Add([]byte("user_id,time_rfc3339\n,2021-03-04T05:06:07Z\nu1,2021-03-04T05:06:08Z"))
	f.Add([]byte("user_id,time_rfc3339\nu1,2021-03-04T05:06:07Z\n\nu2,bad\nu1,2021-03-04T05:06:08Z,x\n\nu3,2021-03-04T05:06:09Z\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		strict, _, err := ingest("fuzz", data, IngestOptions{})
		lenient, report, lerr := ingest("fuzz", data,
			IngestOptions{Lenient: true, MaxBadRows: 1 << 20, SampleCap: 4})
		if lerr == nil && len(report.Rows) > 4 {
			t.Fatalf("quarantine sample %d rows, cap 4", len(report.Rows))
		}
		if err != nil {
			return
		}
		// Strict success implies lenient success with an empty quarantine
		// and the identical dataset.
		if lerr != nil {
			t.Fatalf("strict accepted but lenient failed: %v", lerr)
		}
		if !report.Empty() {
			t.Fatalf("strict accepted but lenient quarantined %d rows", report.BadRows)
		}
		if lenient.NumPosts() != strict.NumPosts() {
			t.Fatalf("lenient kept %d posts, strict %d", lenient.NumPosts(), strict.NumPosts())
		}
		// Round trip: encode, re-read, re-encode. Posts must survive
		// exactly and the encoding must be a byte-identical fixpoint.
		var once bytes.Buffer
		if err := strict.WriteCSV(&once); err != nil {
			t.Fatalf("WriteCSV of accepted dataset: %v", err)
		}
		back, _, err := ingest("fuzz", once.Bytes(), IngestOptions{})
		if err != nil {
			t.Fatalf("re-read of WriteCSV output: %v\n%q", err, once.Bytes())
		}
		if back.NumPosts() != strict.NumPosts() {
			t.Fatalf("round trip kept %d posts, want %d", back.NumPosts(), strict.NumPosts())
		}
		for i := 0; i < strict.NumPosts(); i++ {
			if back.Post(i).UserID != strict.Post(i).UserID || !back.Post(i).Time.Equal(strict.Post(i).Time) {
				t.Fatalf("post %d drifted in round trip: %+v vs %+v", i, back.Post(i), strict.Post(i))
			}
		}
		var twice bytes.Buffer
		if err := back.WriteCSV(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("WriteCSV is not a fixpoint:\n%q\nvs\n%q", once.Bytes(), twice.Bytes())
		}
	})
}

// FuzzShardSplit feeds arbitrary bytes and worker counts to the sharded
// parallel reader. Invariants:
//
//   - shardSplit cuts are monotone, newline-aligned and cover the input,
//     whatever the byte soup;
//   - the parallel reader never panics and is byte-identical to the
//     sequential reader — datasets, quarantine reports and typed errors —
//     in both strict and lenient modes, at any worker count. Adversarial
//     newline/quote/\r placements all funnel through here.
func FuzzShardSplit(f *testing.F) {
	f.Add([]byte("user_id,time_rfc3339\nu1,2017-03-01T10:00:00Z\n"), uint8(3))
	f.Add([]byte("user_id,time_rfc3339\r\nu1,2017-03-01T10:00:00Z\r\nu2,bad\r\n"), uint8(7))
	f.Add([]byte("user_id,time_rfc3339\nu\r1,2017-03-01T10:00:00Z\nu2\n,\n"), uint8(2))
	f.Add([]byte("user_id,time_rfc3339\nu1,2017-03-01T10:00:00+02:00\nu1,2017-03-01T10:00:00.5Z"), uint8(16))
	f.Add([]byte("\n\nuser_id,time_rfc3339\n\r\nu1,2017-03-01T10:00:00Z\r"), uint8(5))
	f.Add([]byte("no,header\n"), uint8(1))
	f.Add([]byte(""), uint8(9))
	f.Add([]byte("\"\n\x00,\r"), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, rawWorkers uint8) {
		workers := 1 + int(rawWorkers%16)
		start := 0
		if len(data) > 0 {
			start = int(rawWorkers) % len(data)
		}
		checkShardSplit(t, data, start, workers)
		checkParallelEquivalence(t, data, IngestOptions{}, workers)
		checkParallelEquivalence(t, data, IngestOptions{Lenient: true, MaxBadRows: 8, SampleCap: 3}, workers)
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot decoder.
// Invariants:
//
//   - the decoder never panics, whatever the bytes (truncations, bit
//     flips, hostile counts);
//   - every rejection is a typed *SnapshotError;
//   - anything accepted is canonical: re-encoding the decoded dataset
//     reproduces the input byte-for-byte.
func FuzzSnapshotDecode(f *testing.F) {
	seed, _, err := ingest("seed", []byte(
		"user_id,time_rfc3339\nu1,2017-03-01T10:00:00Z\nu2,2017-03-01T10:00:00.5Z\nu1,2017-03-01T09:00:00Z\n"),
		IngestOptions{})
	if err != nil {
		f.Fatal(err)
	}
	seed.GroundTruth = map[string]string{"u1": "jp"}
	var buf bytes.Buffer
	if err := seed.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	mutated := bytes.Clone(valid)
	mutated[len(mutated)/2] ^= 0x40
	f.Add(mutated)
	f.Add([]byte("DCSNAP01"))
	f.Add([]byte(""))
	f.Add([]byte("DCSNAP01\x01\x00\x00\x00\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadSnapshotBytes(data)
		if err != nil {
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("decode error is %T, want *SnapshotError: %v", err, err)
			}
			if ds != nil {
				t.Fatal("decode returned both a dataset and an error")
			}
			return
		}
		var out bytes.Buffer
		if err := ds.WriteSnapshot(&out); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted snapshot is not canonical:\n in: %x\nout: %x", data, out.Bytes())
		}
	})
}
