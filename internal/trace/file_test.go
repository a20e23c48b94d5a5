package trace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// readThenIngest is the path IngestFile replaces: the whole file read by
// os.ReadFile, then IngestCSV.
func readThenIngest(path string, opts IngestOptions) (*IngestResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("open trace: %w", err)
	}
	return IngestCSV(path, data, opts)
}

// sameIngestResult asserts two ingests of one file agree on the dataset,
// the quarantine report and the error, typed causes included.
func sameIngestResult(t *testing.T, want, got *IngestResult, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("error = %v, want %v", gotErr, wantErr)
	}
	if errors.Is(wantErr, os.ErrNotExist) != errors.Is(gotErr, os.ErrNotExist) {
		t.Fatalf("errors.Is(%v, os.ErrNotExist) differs from the os.ReadFile path", gotErr)
	}
	if (want == nil) != (got == nil) {
		t.Fatalf("result = %+v, want %+v", got, want)
	}
	if want == nil {
		return
	}
	if !reflect.DeepEqual(want.Report, got.Report) {
		t.Fatalf("report = %+v, want %+v", got.Report, want.Report)
	}
	if (want.Dataset == nil) != (got.Dataset == nil) {
		t.Fatalf("dataset = %v, want %v", got.Dataset, want.Dataset)
	}
	if want.Dataset != nil {
		if got.Dataset.Name != want.Dataset.Name {
			t.Fatalf("name = %q, want %q", got.Dataset.Name, want.Dataset.Name)
		}
		sameStore(t, want.Dataset.Index(), got.Dataset.Index())
	}
}

// TestIngestFileMatchesReadFile runs IngestFile and os.ReadFile+IngestCSV
// on the same paths: a mapped file, an empty one, a missing one and a
// directory give the same results and errors.
func TestIngestFileMatchesReadFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	paths := []string{
		write("clean.csv", "user_id,time_rfc3339\nu1,2021-03-04T05:06:07Z\nu2,2021-03-04T05:06:08.5Z\n"),
		write("dirty.csv", "user_id,time_rfc3339\nu1,2021-02-29T05:06:07Z\nu2,x,y\nu1,2021-03-04T05:06:08Z"),
		write("quoted.csv", "user_id,time_rfc3339\n\"u,1\",2021-03-04T05:06:07Z\n"),
		write("header-only.csv", "user_id,time_rfc3339\n"),
		write("empty.csv", ""),
		filepath.Join(dir, "missing.csv"),
		dir,
	}
	for _, path := range paths {
		for _, opts := range ingestOptsVariants {
			want, wantErr := readThenIngest(path, opts)
			got, gotErr := IngestFile(path, opts)
			sameIngestResult(t, want, got, wantErr, gotErr)
		}
	}
	if _, err := IngestFile(filepath.Join(dir, "empty.csv"), IngestOptions{}); err == nil || err.Error() != "trace: empty CSV" {
		t.Fatalf("empty file: %v, want trace: empty CSV", err)
	}
	if _, err := IngestFile(filepath.Join(dir, "missing.csv"), IngestOptions{}); !errors.Is(err, os.ErrNotExist) || !strings.HasPrefix(err.Error(), "open trace: ") {
		t.Fatalf("missing file: %v", err)
	}
}

// TestIngestFileResultOutlivesMapping reads every string a lenient
// IngestFile result holds — the name, each user ID and each quarantined
// raw value — after the file is unmapped: a string still pointing into
// the mapping would fault.
func TestIngestFileResultOutlivesMapping(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "trace.csv")
	var b strings.Builder
	b.WriteString("user_id,time_rfc3339\n")
	var wantRaw []string
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "user-%02d,2021-03-%02dT05:06:07Z\n", i, 1+i%28)
		if i%10 == 0 {
			raw := fmt.Sprintf("2021-02-29T00:00:%02dZ", i)
			wantRaw = append(wantRaw, raw)
			fmt.Fprintf(&b, "user-%02d,%s\n", i, raw)
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := IngestFile(path, IngestOptions{Lenient: true, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset.Name != path {
		t.Fatalf("name = %q, want %q", res.Dataset.Name, path)
	}
	s := res.Dataset.Index()
	for u := 0; u < s.NumUsers(); u++ {
		if want := fmt.Sprintf("user-%02d", u); s.UserID(u) != want {
			t.Fatalf("user %d = %q, want %q", u, s.UserID(u), want)
		}
	}
	var raws []string
	for _, row := range res.Report.Rows {
		raws = append(raws, row.Raw)
	}
	if !reflect.DeepEqual(raws, wantRaw) {
		t.Fatalf("quarantined raw values = %q, want %q", raws, wantRaw)
	}
}
