package guardmem

import (
	"syscall"
	"testing"
)

// After returns n bytes that end where a PROT_NONE page begins; free
// unmaps them.
func After(t testing.TB, n int) (b []byte, free func()) {
	t.Helper()
	mem, page := mapGuarded(t, n)
	end := len(mem) - page
	protect(t, mem[end:])
	return mem[end-n : end : end], unmap(t, mem)
}

// Before returns n bytes that begin where a PROT_NONE page ends (so they
// start page-aligned); free unmaps them.
func Before(t testing.TB, n int) (b []byte, free func()) {
	t.Helper()
	mem, page := mapGuarded(t, n)
	protect(t, mem[:page])
	return mem[page : page+n : page+n], unmap(t, mem)
}

// mapGuarded maps n bytes rounded up to whole pages, plus one page for
// the guard.
func mapGuarded(t testing.TB, n int) (mem []byte, page int) {
	t.Helper()
	page = syscall.Getpagesize()
	size := (n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap %d bytes: %v", size, err)
	}
	return mem, page
}

func protect(t testing.TB, guard []byte) {
	t.Helper()
	if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
}

func unmap(t testing.TB, mem []byte) func() {
	return func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Fatalf("munmap: %v", err)
		}
	}
}
