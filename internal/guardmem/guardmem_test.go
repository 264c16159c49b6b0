package guardmem

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// TestGuardFaults reads the byte just past each buffer's guarded end and
// expects a fault, turned into a recoverable panic by SetPanicOnFault.
func TestGuardFaults(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("guard pages are Linux-only")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, n := range []int{1, 100, 4096, 5000} {
		b, free := After(t, n)
		b[0], b[n-1] = 1, 2
		if !faults(unsafe.Add(unsafe.Pointer(&b[n-1]), 1)) {
			t.Errorf("After(%d): the byte past the end is readable", n)
		}
		free()
		b, free = Before(t, n)
		b[0], b[n-1] = 1, 2
		if !faults(unsafe.Add(unsafe.Pointer(&b[0]), -1)) {
			t.Errorf("Before(%d): the byte before the start is readable", n)
		}
		free()
	}
}

func faults(p unsafe.Pointer) (faulted bool) {
	defer func() { faulted = recover() != nil }()
	_ = *(*byte)(p)
	return false
}
