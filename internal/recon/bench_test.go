package recon

import (
	"math"
	"math/rand"
	"testing"

	"numastream/internal/tomo"
)

func BenchmarkFFT1K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterRow(b *testing.B) {
	row := make([]float64, 2048)
	for i := range row {
		row[i] = math.Sin(float64(i) / 40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FilterRow(row, Hann); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFBP(b *testing.B) {
	sino := buildSinogram(tomo.RandomPhantom(5, 20), 90, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FBP(sino, 128, Hann); err != nil {
			b.Fatal(err)
		}
	}
}
