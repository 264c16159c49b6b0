package recon

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"numastream/internal/tomo"
)

func TestFFTKnownValues(t *testing.T) {
	// DFT of [1,0,0,0] is [1,1,1,1].
	x := []complex128{1, 0, 0, 0}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
	// DFT of [1,1,1,1] is [4,0,0,0].
	y := []complex128{1, 1, 1, 1}
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(y[0]-4) > 1e-12 || cmplx.Abs(y[1]) > 1e-12 || cmplx.Abs(y[2]) > 1e-12 {
		t.Fatalf("FFT([1 1 1 1]) = %v", y)
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A pure complex exponential at bin k concentrates all energy there.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k*i)/n))
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		want := 0.0
		if i == k {
			want = n
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("bin %d magnitude = %v, want %v", i, cmplx.Abs(v), want)
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err == nil {
		t.Fatal("length 3 accepted")
	}
	if err := IFFT(make([]complex128, 12)); err == nil {
		t.Fatal("length 12 accepted")
	}
}

func TestFFTEmptyAndUnit(t *testing.T) {
	if err := FFT(nil); err != nil {
		t.Fatal(err)
	}
	x := []complex128{42}
	if err := FFT(x); err != nil || x[0] != 42 {
		t.Fatalf("FFT of singleton: %v %v", x, err)
	}
}

func TestFFTPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, sizeExp uint8) bool {
		n := 1 << (int(sizeExp)%9 + 1) // 2..512
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if FFT(x) != nil || IFFT(x) != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTPropertyParseval(t *testing.T) {
	f := func(seed int64) bool {
		const n = 128
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			timeEnergy += real(x[i]) * real(x[i])
		}
		if FFT(x) != nil {
			return false
		}
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(freqEnergy/float64(n)-timeEnergy) < 1e-6*timeEnergy+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(9))
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := 0; i < n; i++ {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		sum[i] = a[i] + 2*b[i]
	}
	FFT(a)
	FFT(b)
	FFT(sum)
	for i := 0; i < n; i++ {
		if cmplx.Abs(sum[i]-(a[i]+2*b[i])) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFilterRowSuppressesDC(t *testing.T) {
	// The ramp filter removes the mean: a constant row filters to ~0
	// in its interior.
	row := make([]float64, 64)
	for i := range row {
		row[i] = 5
	}
	for _, filter := range []Filter{RamLak, SheppLogan, Hann} {
		out, err := FilterRow(row, filter)
		if err != nil {
			t.Fatalf("FilterRow: %v", err)
		}
		center := out[32]
		if math.Abs(center) > 0.5 {
			t.Errorf("filter %v: center of constant row = %v, want ~0", filter, center)
		}
	}
}

func TestFilterRowEmpty(t *testing.T) {
	if _, err := FilterRow(nil, RamLak); err == nil {
		t.Fatal("empty row accepted")
	}
}

func TestSinogramValidate(t *testing.T) {
	good := &Sinogram{Angles: []float64{0, 1}, Rows: [][]float64{{1, 2}, {3, 4}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := []*Sinogram{
		{Angles: []float64{0}, Rows: [][]float64{{1}, {2}}},
		{},
		{Angles: []float64{0}, Rows: [][]float64{{}}},
		{Angles: []float64{0, 1}, Rows: [][]float64{{1, 2}, {3}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad sinogram %d accepted", i)
		}
	}
}

func TestFBPRejectsBadInput(t *testing.T) {
	s := &Sinogram{Angles: []float64{0}, Rows: [][]float64{{1, 2, 3}}}
	if _, err := FBP(s, 0, RamLak); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := FBP(&Sinogram{}, 16, RamLak); err == nil {
		t.Fatal("empty sinogram accepted")
	}
}

// buildSinogram samples the phantom's line integrals in the slice z = 0:
// the one detector row of a noiseless projection quantized to 1e-3.
func buildSinogram(p *tomo.Phantom, angles, width int) *Sinogram {
	const scale = 1000
	cfg := tomo.ProjectionConfig{Width: width, Height: 1, QuantStep: 1, Scale: scale}
	s := &Sinogram{}
	for a := 0; a < angles; a++ {
		theta := math.Pi * float64(a) / float64(angles)
		frame := tomo.Projection(p, theta, cfg)
		row := make([]float64, width)
		for u := range row {
			row[u] = float64(binary.LittleEndian.Uint16(frame[2*u:])) / scale
		}
		s.Angles = append(s.Angles, theta)
		s.Rows = append(s.Rows, row)
	}
	return s
}

// densityAt is the phantom's density at (x, y, z): the ground truth a
// reconstruction is compared against.
func densityAt(p *tomo.Phantom, x, y, z float64) float64 {
	var d float64
	for _, s := range p.Spheres {
		dx, dy, dz := x-s.X, y-s.Y, z-s.Z
		if dx*dx+dy*dy+dz*dz < s.R*s.R {
			d += s.Density
		}
	}
	return d
}

// TestFBPReconstructsPhantomSlice is the end-to-end analysis check:
// reconstruct the central slice of a two-sphere phantom and verify the
// image correlates strongly with the ground-truth density.
func TestFBPReconstructsPhantomSlice(t *testing.T) {
	p := &tomo.Phantom{Spheres: []tomo.Sphere{
		{X: -0.3, Y: -0.2, Z: 0, R: 0.25, Density: 1},
		{X: 0.35, Y: 0.3, Z: 0, R: 0.18, Density: 1.5},
	}}
	const size, angles, width = 64, 120, 128
	sino := buildSinogram(p, angles, width)
	img, err := FBP(sino, size, Hann)
	if err != nil {
		t.Fatalf("FBP: %v", err)
	}

	// Ground truth slice.
	truth := make([]float64, size*size)
	for yi := 0; yi < size; yi++ {
		y := 2*float64(yi)/size - 1 + 1.0/size
		for xi := 0; xi < size; xi++ {
			x := 2*float64(xi)/size - 1 + 1.0/size
			truth[yi*size+xi] = densityAt(p, x, y, 0)
		}
	}

	if c := correlation(img, truth); c < 0.8 {
		t.Fatalf("reconstruction correlation with ground truth = %.3f, want >= 0.8", c)
	}

	// Sphere centers must reconstruct brighter than empty background.
	at := func(x, y float64) float64 {
		xi := int((x + 1) / 2 * size)
		yi := int((y + 1) / 2 * size)
		return img[yi*size+xi]
	}
	inside1 := at(-0.3, -0.2)
	inside2 := at(0.35, 0.3)
	background := at(-0.8, 0.8)
	if inside1 <= background || inside2 <= background {
		t.Fatalf("sphere interiors (%.3f, %.3f) not brighter than background %.3f",
			inside1, inside2, background)
	}
	// The denser sphere reconstructs brighter.
	if inside2 <= inside1 {
		t.Fatalf("denser sphere (%.3f) not brighter than lighter one (%.3f)", inside2, inside1)
	}
}

func TestFBPAllFiltersWork(t *testing.T) {
	p := &tomo.Phantom{Spheres: []tomo.Sphere{{R: 0.4, Density: 1}}}
	sino := buildSinogram(p, 45, 64)
	for _, f := range []Filter{RamLak, SheppLogan, Hann} {
		img, err := FBP(sino, 32, f)
		if err != nil {
			t.Fatalf("FBP with filter %v: %v", f, err)
		}
		// Center (inside the sphere) vs corner (outside).
		if img[16*32+16] <= img[0] {
			t.Errorf("filter %v: center %.3f not above corner %.3f", f, img[16*32+16], img[0])
		}
	}
}

func correlation(a, b []float64) float64 {
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
