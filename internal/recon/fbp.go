package recon

import (
	"fmt"
	"math"
)

// Filter selects the frequency-domain reconstruction filter.
type Filter int

// Available filters.
const (
	// RamLak is the ideal ramp |f| filter.
	RamLak Filter = iota
	// SheppLogan is the ramp windowed by sinc, less noise-amplifying.
	SheppLogan
	// Hann is the ramp windowed by a Hann window.
	Hann
)

// FilterRow applies the chosen reconstruction filter to one sinogram
// row (detector samples at a single angle), returning the filtered row.
// The row is zero-padded to twice the next power of two to avoid
// circular-convolution wraparound.
func FilterRow(row []float64, filter Filter) ([]float64, error) {
	n := len(row)
	if n == 0 {
		return nil, fmt.Errorf("recon: empty sinogram row")
	}
	m := 2 * NextPow2(n)
	buf := make([]complex128, m)
	for i, v := range row {
		buf[i] = complex(v, 0)
	}
	if err := FFT(buf); err != nil {
		return nil, err
	}
	for k := range buf {
		// Frequency index in [-m/2, m/2).
		f := k
		if f > m/2 {
			f = m - f
		}
		ramp := float64(f) / float64(m/2) // normalized |f|
		w := ramp
		switch filter {
		case SheppLogan:
			if f > 0 {
				arg := math.Pi * ramp / 2
				w = ramp * math.Sin(arg) / arg
			}
		case Hann:
			w = ramp * 0.5 * (1 + math.Cos(math.Pi*ramp))
		}
		buf[k] *= complex(w, 0)
	}
	if err := IFFT(buf); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = real(buf[i])
	}
	return out, nil
}

// Sinogram holds projection rows: Rows[i] are the detector samples at
// Angles[i] (radians). Detector coordinate u spans [-1, 1] across each
// row, matching the tomo package's projection geometry
// (u = -x·sinθ + y·cosθ).
type Sinogram struct {
	Angles []float64
	Rows   [][]float64
}

// Validate checks structural consistency.
func (s *Sinogram) Validate() error {
	if len(s.Angles) != len(s.Rows) {
		return fmt.Errorf("recon: %d angles but %d rows", len(s.Angles), len(s.Rows))
	}
	if len(s.Rows) == 0 {
		return fmt.Errorf("recon: empty sinogram")
	}
	w := len(s.Rows[0])
	if w == 0 {
		return fmt.Errorf("recon: zero-width sinogram rows")
	}
	for i, r := range s.Rows {
		if len(r) != w {
			return fmt.Errorf("recon: row %d has %d samples, want %d", i, len(r), w)
		}
	}
	return nil
}

// FBP reconstructs a size×size slice (row-major, spanning [-1,1]²) from
// the sinogram by filtered backprojection with the given filter.
func FBP(s *Sinogram, size int, filter Filter) ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if size < 1 {
		return nil, fmt.Errorf("recon: invalid slice size %d", size)
	}
	width := len(s.Rows[0])

	filtered := make([][]float64, len(s.Rows))
	for i, row := range s.Rows {
		f, err := FilterRow(row, filter)
		if err != nil {
			return nil, err
		}
		filtered[i] = f
	}

	img := make([]float64, size*size)
	for yi := 0; yi < size; yi++ {
		backprojectRow(img, filtered, s.Angles, size, width, yi)
	}
	return img, nil
}

// backprojectRow accumulates all angles into image row yi.
func backprojectRow(img []float64, filtered [][]float64, angles []float64, size, width, yi int) {
	du := 2.0 / float64(width)
	scale := math.Pi / float64(len(angles))
	y := 2*float64(yi)/float64(size) - 1 + 1.0/float64(size)
	for ai, theta := range angles {
		sin, cos := math.Sin(theta), math.Cos(theta)
		row := filtered[ai]
		for xi := 0; xi < size; xi++ {
			x := 2*float64(xi)/float64(size) - 1 + 1.0/float64(size)
			u := -x*sin + y*cos
			pos := (u + 1 - du/2) / du
			i0 := int(math.Floor(pos))
			frac := pos - float64(i0)
			var v float64
			if i0 >= 0 && i0+1 < width {
				v = row[i0]*(1-frac) + row[i0+1]*frac
			} else if i0 == width-1 && frac == 0 {
				v = row[i0]
			}
			img[yi*size+xi] += v * scale
		}
	}
}
