//go:build !unix

package trace

import "os"

// readFile reads the file into memory; this platform has no mmap path.
func readFile(path string) (data []byte, unmap func(), err error) {
	data, err = os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}
