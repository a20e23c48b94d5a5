// Package atomicio centralizes the temp-file-plus-rename discipline every
// output file in this repo is written with: the destination path either
// holds its previous complete content or the new complete content, never a
// partially written file — even if the process dies mid-write. All CLI
// outputs (datasets, reports, reference profiles), .dcs snapshots and the
// crawler checkpoint go through WriteFile, so the no-partial-outputs
// invariant is enforced in one place and fault-tested in one place (see
// internal/chaos).
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Ops a Hook is consulted before. Each names the I/O step about to run.
const (
	OpCreate = "create" // creating the temp file next to the destination
	OpWrite  = "write"  // streaming the content into the temp file
	OpClose  = "close"  // flushing and closing the temp file
	OpRename = "rename" // renaming the temp file onto the destination
)

// Hook is a fault-injection point consulted before each I/O step of an
// atomic write. Returning a non-nil error makes that step fail with it.
// Production code passes nil; the chaos harness injects deterministic
// failures here to prove that no failure step can leave a partial
// destination file behind.
type Hook func(op, path string) error

// WriteFile atomically replaces path with whatever write produces: the
// content is streamed into a hidden temp file in the destination
// directory (same filesystem, so the final rename is atomic) and renamed
// over path only after a successful close. On any error — including an
// error returned by write itself — the temp file is removed and the
// previous content of path is left untouched.
func WriteFile(path string, write func(io.Writer) error) error {
	return WriteFileHooked(path, write, nil)
}

// WriteFileHooked is WriteFile with a fault hook. A nil hook is the
// production path and behaves exactly like WriteFile.
func WriteFileHooked(path string, write func(io.Writer) error, hook Hook) error {
	step := func(op string) error {
		if hook == nil {
			return nil
		}
		if err := hook(op, path); err != nil {
			return fmt.Errorf("atomicio: %s %s: %w", op, path, err)
		}
		return nil
	}
	if err := step(OpCreate); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return fmt.Errorf("atomicio: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	discard := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := step(OpWrite); err != nil {
		return discard(err)
	}
	if err := write(tmp); err != nil {
		return discard(fmt.Errorf("atomicio: write %s: %w", path, err))
	}
	if err := step(OpClose); err != nil {
		return discard(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicio: close temp for %s: %w", path, err)
	}
	if err := step(OpRename); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicio: install %s: %w", path, err)
	}
	return nil
}

// WriteFileBytes is WriteFile for pre-encoded content.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
