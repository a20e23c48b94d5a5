package trace

import "fmt"

// IngestFile is IngestCSV of the file at path, named by path. A regular,
// non-empty file is mapped read-only for the ingest and unmapped before
// IngestFile returns (the result keeps no reference to the bytes); a
// pipe, a device such as /dev/stdin, an empty file or a platform without
// mmap is read into memory as os.ReadFile would. A failure to open or
// read the file is returned as "open trace: …", wrapping the os error.
//
// A file truncated in place while it is mapped makes the process fault
// (SIGBUS) on the missing pages. This program rewrites files only by
// atomic rename, which leaves a mapped file whole.
func IngestFile(path string, opts IngestOptions) (*IngestResult, error) {
	data, unmap, err := readFile(path)
	if err != nil {
		return nil, fmt.Errorf("open trace: %w", err)
	}
	defer unmap()
	return IngestCSV(path, data, opts)
}
