//go:build !linux

package guardmem

import "testing"

// After returns n heap bytes: guard pages are only set up on Linux.
func After(t testing.TB, n int) (b []byte, free func()) {
	return make([]byte, n), func() {}
}

// Before returns n heap bytes: guard pages are only set up on Linux.
func Before(t testing.TB, n int) (b []byte, free func()) {
	return make([]byte, n), func() {}
}
