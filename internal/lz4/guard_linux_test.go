package lz4

import (
	"syscall"
	"testing"
)

// guarded returns n bytes that end where a PROT_NONE page begins, so a
// kernel reading or writing even one byte past them faults instead of
// touching a neighbour on the heap; free unmaps them.
func guarded(t testing.TB, n int) (b []byte, free func()) {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap %d bytes: %v", size, err)
	}
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	end := size - page
	return mem[end-n : end : end], func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Fatalf("munmap: %v", err)
		}
	}
}
