package chunk

import (
	"fmt"
	"os"
)

// File-level conveniences: the tools and DAQ-side code work with
// container files on disk.

// CreateFile starts a new container file at path. Close the returned
// writer, then the file.
func CreateFile(path string) (*Writer, *os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("chunk: creating %s: %w", path, err)
	}
	w, err := NewWriter(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, f, nil
}

// OpenFile opens a container file for random access. Close the returned
// file when done with the reader.
func OpenFile(path string) (*Reader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("chunk: opening %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}
