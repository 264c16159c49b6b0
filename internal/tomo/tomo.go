// Package tomo generates synthetic tomographic projection data. The paper
// streams a 16 GB dataset that "mirrors real tomographic datasets"
// (tomobank's borosilicate-sphere phantoms) in 11.0592 MB chunks, one
// X-ray projection per chunk. No such dataset is downloadable here, so
// this package computes parallel-beam projections of a randomized sphere
// phantom — the same object class as the paper's spheres dataset — with
// detector noise and quantization. The noise model was tuned to the
// paper's average 2:1 LZ4 ratio against this repo's first codec; with
// the present one (internal/lz4, 7-byte hash and a denser match table)
// a full-size projection compresses 2.6–2.8 : 1, which is what the
// benchmark's tomo workloads and examples/tomostream report.
package tomo

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// ChunkBytes is the paper's streaming unit: 11.0592 MB, exactly one
// projection. With a 16-bit detector this is a 1920x2880 frame.
const (
	ChunkBytes       = 11059200
	DetectorWidth    = 1920
	DetectorHeight   = 2880
	bytesPerPixel    = 2
	detectorMaxValue = 65535
)

// Sphere is one ball of the phantom, in normalized object coordinates
// ([-1,1] on each axis).
type Sphere struct {
	X, Y, Z float64 // center
	R       float64 // radius
	Density float64 // attenuation coefficient
}

// Phantom is a collection of spheres in a cubic volume, mimicking the
// tomobank "varied volume fractions of borosilicate glass spheres" object.
type Phantom struct {
	Spheres []Sphere
}

// RandomPhantom builds a phantom of n non-degenerate spheres using the
// given seed. Radii follow the tomobank spheres dataset's spirit: a
// narrow gaussian around the mean radius.
func RandomPhantom(seed int64, n int) *Phantom {
	rng := rand.New(rand.NewSource(seed))
	p := &Phantom{Spheres: make([]Sphere, 0, n)}
	for i := 0; i < n; i++ {
		r := 0.05 + 0.02*math.Abs(rng.NormFloat64())
		p.Spheres = append(p.Spheres, Sphere{
			X:       rng.Float64()*1.6 - 0.8,
			Y:       rng.Float64()*1.6 - 0.8,
			Z:       rng.Float64()*1.6 - 0.8,
			R:       r,
			Density: 0.5 + rng.Float64(),
		})
	}
	return p
}

// ProjectionConfig controls detector geometry and noise.
type ProjectionConfig struct {
	Width, Height int     // detector pixels
	NoiseSigma    float64 // gaussian detector noise, in raw counts
	QuantStep     int     // quantization step applied to raw counts (>=1)
	Scale         float64 // counts per unit path length
	Seed          int64   // noise seed
}

// DefaultProjectionConfig returns the geometry and noise model of a
// default phantom's projections: LZ4 ratio 2.6–2.8 : 1 at full size (the
// paper reports 2:1 on its dataset; see the package comment). A test
// holds the ratio inside [1.6, 3.0].
func DefaultProjectionConfig() ProjectionConfig {
	return ProjectionConfig{
		Width:      DetectorWidth,
		Height:     DetectorHeight,
		NoiseSigma: 12,
		QuantStep:  16,
		Scale:      20000,
		Seed:       1,
	}
}

// Projection computes the parallel-beam projection of p at angle theta
// (radians around the z axis) and returns the detector frame as raw
// little-endian uint16 samples, row-major, len = Width*Height*2 bytes.
//
// The beam travels along d = (cos θ, sin θ, 0); the detector axes are
// u = (-sin θ, cos θ, 0) and v = z. A ray through detector position
// (u, v) passes a sphere centered at c at squared distance
// (u - c·û)² + (v - c_z)², and the contribution is the chord length
// 2·sqrt(r² - dist²) times the density — the classical closed form for
// sphere phantoms.
func Projection(p *Phantom, theta float64, cfg ProjectionConfig) []byte {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("tomo: invalid detector %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.QuantStep < 1 {
		cfg.QuantStep = 1
	}
	sin, cos := math.Sin(theta), math.Cos(theta)

	acc := make([]float64, cfg.Width*cfg.Height)
	// Detector coordinates span [-1,1] in u and v.
	du := 2.0 / float64(cfg.Width)
	dv := 2.0 / float64(cfg.Height)

	for _, s := range p.Spheres {
		cu := -s.X*sin + s.Y*cos
		cv := s.Z
		// Bounding box of the sphere's shadow on the detector.
		u0 := int((cu - s.R + 1) / du)
		u1 := int((cu+s.R+1)/du) + 1
		v0 := int((cv - s.R + 1) / dv)
		v1 := int((cv+s.R+1)/dv) + 1
		if u0 < 0 {
			u0 = 0
		}
		if v0 < 0 {
			v0 = 0
		}
		if u1 > cfg.Width {
			u1 = cfg.Width
		}
		if v1 > cfg.Height {
			v1 = cfg.Height
		}
		r2 := s.R * s.R
		for vi := v0; vi < v1; vi++ {
			v := float64(vi)*dv - 1 + dv/2
			dz := v - cv
			dz2 := dz * dz
			if dz2 >= r2 {
				continue
			}
			row := vi * cfg.Width
			for ui := u0; ui < u1; ui++ {
				u := float64(ui)*du - 1 + du/2
				dd := (u-cu)*(u-cu) + dz2
				if dd < r2 {
					acc[row+ui] += 2 * math.Sqrt(r2-dd) * s.Density
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(math.Float64bits(theta))))
	out := make([]byte, cfg.Width*cfg.Height*bytesPerPixel)
	q := float64(cfg.QuantStep)
	for i, a := range acc {
		counts := a * cfg.Scale
		if cfg.NoiseSigma > 0 {
			counts += rng.NormFloat64() * cfg.NoiseSigma
		}
		counts = math.Round(counts/q) * q
		if counts < 0 {
			counts = 0
		}
		if counts > detectorMaxValue {
			counts = detectorMaxValue
		}
		binary.LittleEndian.PutUint16(out[i*2:], uint16(counts))
	}
	return out
}

// Generator produces a deterministic sequence of projection chunks from a
// phantom, cycling the rotation angle as a real scan would. It is the
// workload source for the streaming experiments.
type Generator struct {
	phantom *Phantom
	cfg     ProjectionConfig
	angles  int
	next    int
}

// NewGenerator returns a generator over the given phantom taking `angles`
// projections per revolution.
func NewGenerator(p *Phantom, cfg ProjectionConfig, angles int) *Generator {
	if angles < 1 {
		angles = 1
	}
	return &Generator{phantom: p, cfg: cfg, angles: angles}
}

// NewDefaultGenerator returns a full-detector-size generator over a
// default 60-sphere phantom — the standard experiment workload.
func NewDefaultGenerator(seed int64) *Generator {
	return NewGenerator(RandomPhantom(seed, 60), DefaultProjectionConfig(), 360)
}

// Next returns the next projection chunk. Chunks repeat after one full
// revolution, which is fine for throughput experiments (the paper's
// senders likewise replay a fixed 16 GB dataset).
func (g *Generator) Next() []byte {
	theta := 2 * math.Pi * float64(g.next%g.angles) / float64(g.angles)
	g.next++
	return Projection(g.phantom, theta, g.cfg)
}

// ChunkSize returns the byte size of chunks produced by Next.
func (g *Generator) ChunkSize() int {
	return g.cfg.Width * g.cfg.Height * bytesPerPixel
}
