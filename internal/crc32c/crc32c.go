// Package crc32c computes CRC-32C (Castagnoli), the checksum every chunk
// frame carries on the wire, bit for bit as hash/crc32 does with the
// Castagnoli table.
//
// On amd64 with AVX-512 and VPCLMULQDQ an assembly kernel folds the input
// 256 bytes per iteration in four ZMM accumulators; hash/crc32 runs
// below the length where that pays, over the kernel's tail, and on every
// other host. hash/crc32 is also the reference the kernel is tested
// against.
package crc32c

import "hash/crc32"

var table = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of p.
func Checksum(p []byte) uint32 { return Update(0, p) }

// Update returns the result of adding the bytes in p to crc, as
// crc32.Update with the Castagnoli table does.
func Update(crc uint32, p []byte) uint32 {
	if len(p) < kernelMin {
		return crc32.Update(crc, table, p)
	}
	return update(crc, p)
}

// kernelMin is the shortest input the kernel takes: below it the fixed
// cost of loading four accumulators and reducing 256 bytes serially
// outweighs what the folding saves over hash/crc32's three-stream loop
// (BenchmarkCrossover).
const kernelMin = 768

// blockLen is the bytes the kernel folds per iteration: four ZMM
// accumulators of 64 bytes.
const blockLen = 256

// update runs the kernel over p's whole blocks, where there is one, and
// hash/crc32 over the rest.
func update(crc uint32, p []byte) uint32 {
	if n := len(p) &^ (blockLen - 1); haveKernel && n > 0 {
		crc = foldBlocks(crc, &p[0], n)
		p = p[n:]
	}
	return crc32.Update(crc, table, p)
}

// fold2048 holds the kernel's fold constants for one 128-bit lane: the
// lane's low qword is multiplied by x^(2048+32) mod P and its high qword
// by x^(2048−32) mod P, each 32-bit remainder bit-reflected and shifted
// left by one (TestFoldConstants derives both from the polynomial). The
// amd64 kernel broadcasts it to all four lanes of a ZMM register.
var fold2048 = [2]uint64{0xdcb17aa4, 0xb9e02b86}
