package tomo

import "testing"

func BenchmarkProjectionQuarterScale(b *testing.B) {
	p := RandomPhantom(1, 60)
	cfg := DefaultProjectionConfig()
	cfg.Width /= 4
	cfg.Height /= 4
	b.SetBytes(int64(cfg.Width * cfg.Height * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Projection(p, float64(i)*0.01, cfg)
	}
}
