//go:build unix

package trace

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestIngestFileFIFO reads a trace from a named pipe, which cannot be
// mapped, and gets the result IngestCSV gives on the same bytes.
func TestIngestFileFIFO(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "trace.fifo")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	data := []byte("user_id,time_rfc3339\nu2,2021-03-04T05:06:07Z\nu1,2021-02-29T05:06:08Z\nu1,2021-03-04T05:06:09Z\n")
	for _, opts := range ingestOptsVariants {
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Opening the write end blocks until IngestFile opens the
			// read end.
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Write(data); err != nil {
				t.Error(err)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		}()
		got, gotErr := IngestFile(path, opts)
		// Release a writer still waiting for a reader, should IngestFile
		// have returned without opening the pipe.
		if r, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0); err == nil {
			r.Close()
		}
		<-done
		want, wantErr := IngestCSV(path, data, opts)
		sameIngestResult(t, want, got, wantErr, gotErr)
	}
}
