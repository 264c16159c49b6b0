package chunk

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.nscf")
	chunks := [][]byte{[]byte("proj-0"), bytes.Repeat([]byte{9}, 1000)}
	attrs := map[string]string{"detector": "64x64"}
	writeFile(t, path, chunks, attrs)
	r, f, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if r.NumChunks() != 2 {
		t.Fatalf("NumChunks = %d", r.NumChunks())
	}
	got, err := r.ReadChunk(1)
	if err != nil || !bytes.Equal(got, chunks[1]) {
		t.Fatalf("ReadChunk: %v", err)
	}
	if v, ok := r.Attr("detector"); !ok || v != "64x64" {
		t.Fatalf("Attr = %q, %v", v, ok)
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, _, err := OpenFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file opened")
	}
}

func TestOpenFileCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.nscf")
	writeFile(t, path, [][]byte{[]byte("x")}, nil)
	// Truncate the footer off.
	data, err := readAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAll(path, data[:len(data)-4]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFile(path); err == nil {
		t.Fatal("corrupt file opened")
	}
}

func TestCreateFileBadPath(t *testing.T) {
	if _, _, err := CreateFile(t.TempDir() + "/no/such/dir/x"); err == nil {
		t.Fatal("bad path accepted")
	}
}

// writeFile writes a whole container (chunks plus attributes) to path.
func writeFile(t *testing.T, path string, chunks [][]byte, attrs map[string]string) {
	t.Helper()
	w, f, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for k, v := range attrs {
		if err := w.SetAttr(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range chunks {
		if err := w.WriteChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(path string) ([]byte, error)  { return os.ReadFile(path) }
func writeAll(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }
