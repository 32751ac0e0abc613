package cfloat_test

import (
	"math"
	"testing"

	"repro/internal/cfloat"
)

// FuzzSplitMergeRoundTrip: splitting a complex vector into re/im planes
// and merging back must restore every element bit-for-bit, including
// NaNs, infinities and signed zeros.
func FuzzSplitMergeRoundTrip(f *testing.F) {
	f.Add(float32(0), float32(-0.0), float32(1e38), float32(-1e-45))
	f.Add(float32(math.NaN()), float32(math.Inf(1)), float32(1), float32(2))
	f.Fuzz(func(t *testing.T, a, b, c, d float32) {
		x := []complex64{complex(a, b), complex(c, d)}
		re := make([]float32, len(x))
		im := make([]float32, len(x))
		cfloat.SplitReIm(x, re, im)
		back := make([]complex64, len(x))
		cfloat.MergeReIm(re, im, back)
		for i := range x {
			if math.Float32bits(real(back[i])) != math.Float32bits(real(x[i])) ||
				math.Float32bits(imag(back[i])) != math.Float32bits(imag(x[i])) {
				t.Fatalf("element %d: %v → %v", i, x[i], back[i])
			}
		}
	})
}
