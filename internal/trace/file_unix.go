//go:build unix

package trace

import (
	"io"
	"os"
	"syscall"
)

// readFile maps a regular, non-empty file read-only and returns the
// mapping with the function that unmaps it. Anything else is read from
// the same open file, with os.ReadFile's results and errors: a FIFO is
// opened once, and a directory fails its read.
func readFile(path string) (data []byte, unmap func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() > 0 && int64(int(fi.Size())) == fi.Size() {
		data, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
		if err == nil {
			// Munmap of a mapping this function made can fail only on a
			// bad address or length, neither of which can occur here.
			return data, func() { _ = syscall.Munmap(data) }, nil
		}
	}
	data, err = io.ReadAll(f)
	if err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}
