package tomo

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"numastream/internal/lz4"
)

func smallConfig() ProjectionConfig {
	cfg := DefaultProjectionConfig()
	cfg.Width, cfg.Height = 240, 360
	return cfg
}

func TestChunkBytesMatchesDetector(t *testing.T) {
	if DetectorWidth*DetectorHeight*bytesPerPixel != ChunkBytes {
		t.Fatalf("detector %dx%dx%d = %d, want %d", DetectorWidth, DetectorHeight,
			bytesPerPixel, DetectorWidth*DetectorHeight*bytesPerPixel, ChunkBytes)
	}
}

func TestProjectionSize(t *testing.T) {
	cfg := smallConfig()
	p := RandomPhantom(1, 10)
	frame := Projection(p, 0, cfg)
	if len(frame) != cfg.Width*cfg.Height*2 {
		t.Fatalf("frame size = %d, want %d", len(frame), cfg.Width*cfg.Height*2)
	}
}

func TestProjectionDeterministic(t *testing.T) {
	cfg := smallConfig()
	p := RandomPhantom(2, 10)
	a := Projection(p, 0.3, cfg)
	b := Projection(p, 0.3, cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("same phantom/angle/config produced different frames")
	}
}

func TestProjectionAngleChangesFrame(t *testing.T) {
	cfg := smallConfig()
	p := RandomPhantom(3, 10)
	a := Projection(p, 0, cfg)
	b := Projection(p, math.Pi/2, cfg)
	if bytes.Equal(a, b) {
		t.Fatal("rotating the phantom did not change the projection")
	}
}

func TestCenteredSphereChordValue(t *testing.T) {
	// A single sphere at the origin must project its maximum chord
	// (2r·density·scale) at the detector center, at any angle.
	cfg := smallConfig()
	cfg.NoiseSigma = 0
	cfg.QuantStep = 1
	s := Sphere{R: 0.5, Density: 1}
	p := &Phantom{Spheres: []Sphere{s}}
	want := 2 * s.R * cfg.Scale
	for _, theta := range []float64{0, 1, 2.5} {
		frame := Projection(p, theta, cfg)
		center := (cfg.Height/2*cfg.Width + cfg.Width/2) * 2
		got := float64(binary.LittleEndian.Uint16(frame[center:]))
		if math.Abs(got-want) > want*0.02 {
			t.Fatalf("theta=%v: center value %v, want ~%v", theta, got, want)
		}
	}
}

func TestProjectionMassConservedAcrossAngles(t *testing.T) {
	// Parallel-beam line integrals conserve total mass: the frame sum
	// must be angle-invariant (up to noise/quantization/clipping).
	cfg := smallConfig()
	cfg.NoiseSigma = 0
	cfg.QuantStep = 1
	cfg.Scale = 2000 // keep well below clipping
	p := RandomPhantom(4, 20)
	sum := func(frame []byte) float64 {
		var s float64
		for i := 0; i < len(frame); i += 2 {
			s += float64(binary.LittleEndian.Uint16(frame[i:]))
		}
		return s
	}
	s0 := sum(Projection(p, 0, cfg))
	s1 := sum(Projection(p, 1.1, cfg))
	if s0 == 0 {
		t.Fatal("projection is all zeros")
	}
	if math.Abs(s0-s1)/s0 > 0.02 {
		t.Fatalf("mass not conserved: %v vs %v", s0, s1)
	}
}

func TestLZ4RatioNearPaper(t *testing.T) {
	// The paper reports an average 2:1 LZ4 ratio on projection chunks;
	// this codec reads 2.4 on these reduced projections and 2.6–2.8
	// at full size. The band keeps the data tomography-like: neither
	// noise (→ 1) nor flat (→ 100).
	cfg := smallConfig() // same statistics as full size, 16x cheaper
	g := NewGenerator(RandomPhantom(5, 60), cfg, 360)
	var ratio float64
	const n = 4
	for i := 0; i < n; i++ {
		frame := g.Next()
		block := make([]byte, lz4.CompressBound(len(frame)))
		packed, err := lz4.CompressBlock(frame, block)
		if err != nil {
			t.Fatalf("CompressBlock: %v", err)
		}
		ratio += float64(len(frame)) / float64(packed)
	}
	ratio /= n
	if ratio < 1.6 || ratio > 3.0 {
		t.Fatalf("LZ4 ratio = %.2f, want within [1.6, 3.0] (paper: ~2)", ratio)
	}
	t.Logf("average LZ4 ratio on synthetic projections: %.2f", ratio)
}

func TestGeneratorCyclesAngles(t *testing.T) {
	cfg := smallConfig()
	g := NewGenerator(RandomPhantom(6, 5), cfg, 4)
	first := make([][]byte, 4)
	for i := range first {
		first[i] = g.Next()
	}
	again := g.Next()
	if !bytes.Equal(again, first[0]) {
		t.Fatal("generator did not cycle back to angle 0")
	}
	if bytes.Equal(first[0], first[1]) {
		t.Fatal("distinct angles produced identical frames")
	}
}

func TestGeneratorChunkSize(t *testing.T) {
	g := NewGenerator(RandomPhantom(1, 60), DefaultProjectionConfig(), 360)
	if n := len(g.Next()); n != ChunkBytes {
		t.Fatalf("chunk size = %d, want %d", n, ChunkBytes)
	}
}

func TestRandomPhantomDeterministic(t *testing.T) {
	a := RandomPhantom(7, 30)
	b := RandomPhantom(7, 30)
	if len(a.Spheres) != 30 || len(b.Spheres) != 30 {
		t.Fatalf("sphere counts: %d, %d", len(a.Spheres), len(b.Spheres))
	}
	for i := range a.Spheres {
		if a.Spheres[i] != b.Spheres[i] {
			t.Fatalf("sphere %d differs across same-seed phantoms", i)
		}
	}
	c := RandomPhantom(8, 30)
	if a.Spheres[0] == c.Spheres[0] {
		t.Fatal("different seeds produced identical first sphere")
	}
}
