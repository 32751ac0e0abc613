// Package cfloat provides single-precision complex vector and matrix
// primitives used throughout the TLR-MVM reproduction: BLAS-like level-1
// and level-2 routines over complex64, the real GEMV that the paper's
// Cerebras kernel decomposes every complex MVM into (§6.6), and the
// split-plane kernels of soa.go.
//
// All routines are allocation-free on their hot paths and accumulate in
// float64 where it measurably improves accuracy (dot products, norms).
package cfloat

import "math"

// Trans selects the operation applied to a matrix operand.
type Trans int

const (
	// NoTrans applies the matrix as stored: y = A x.
	NoTrans Trans = iota
	// Transpose applies the unconjugated transpose: y = Aᵀ x.
	Transpose
	// ConjTrans applies the conjugate (Hermitian) transpose: y = Aᴴ x.
	ConjTrans
)

func (t Trans) String() string {
	switch t {
	case NoTrans:
		return "N"
	case Transpose:
		return "T"
	case ConjTrans:
		return "C"
	}
	return "?"
}

// Axpy computes y += alpha*x elementwise. x and y must have equal length.
func Axpy(alpha complex64, x, y []complex64) {
	if len(x) != len(y) {
		panic("cfloat: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal scales x in place by alpha.
func Scal(alpha complex64, x []complex64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dotc returns xᴴ y (x conjugated), accumulating in float64.
//
//lint:widen-ok deliberate float64 accumulation for numerical stability
func Dotc(x, y []complex64) complex64 {
	if len(x) != len(y) {
		panic("cfloat: Dotc length mismatch")
	}
	var re, im float64
	for i := range x {
		xr := float64(real(x[i]))
		xi := float64(imag(x[i]))
		yr := float64(real(y[i]))
		yi := float64(imag(y[i]))
		// conj(x)*y = (xr - i xi)(yr + i yi)
		re += xr*yr + xi*yi
		im += xr*yi - xi*yr
	}
	return complex(float32(re), float32(im))
}

// Dotu returns xᵀ y (no conjugation), accumulating in float64.
//
//lint:widen-ok deliberate float64 accumulation for numerical stability
func Dotu(x, y []complex64) complex64 {
	if len(x) != len(y) {
		panic("cfloat: Dotu length mismatch")
	}
	var re, im float64
	for i := range x {
		xr := float64(real(x[i]))
		xi := float64(imag(x[i]))
		yr := float64(real(y[i]))
		yi := float64(imag(y[i]))
		re += xr*yr - xi*yi
		im += xr*yi + xi*yr
	}
	return complex(float32(re), float32(im))
}

// Nrm2 returns the Euclidean norm of x, accumulated in float64.
//
//lint:widen-ok deliberate float64 accumulation for numerical stability
func Nrm2(x []complex64) float64 {
	var s float64
	for _, v := range x {
		r := float64(real(v))
		i := float64(imag(v))
		s += r*r + i*i
	}
	return math.Sqrt(s)
}

// Asum returns the sum of |Re|+|Im| over x, accumulated in float64.
//
//lint:widen-ok deliberate float64 accumulation for numerical stability
func Asum(x []complex64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(float64(real(v))) + math.Abs(float64(imag(v)))
	}
	return s
}

// IAmax returns the index of the element with the largest |Re|+|Im|
// magnitude, or -1 for an empty slice.
//
//lint:widen-ok magnitude comparison in float64 is exact for float32 inputs
func IAmax(x []complex64) int {
	best, bi := -1.0, -1
	for i, v := range x {
		m := math.Abs(float64(real(v))) + math.Abs(float64(imag(v)))
		if m > best {
			best, bi = m, i
		}
	}
	return bi
}

// Conj conjugates x in place.
func Conj(x []complex64) {
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
}

// Copy copies src into dst; the slices must have equal length.
func Copy(dst, src []complex64) {
	if len(dst) != len(src) {
		panic("cfloat: Copy length mismatch")
	}
	copy(dst, src)
}

// Gemv computes y = alpha*op(A)*x + beta*y where A is m×n stored
// column-major in a with leading dimension lda, and op is selected by t.
// For t == NoTrans, x has length n and y length m; for Transpose and
// ConjTrans the roles are swapped.
//
//lint:widen-ok deliberate float64 accumulation for numerical stability
func Gemv(t Trans, m, n int, alpha complex64, a []complex64, lda int, x []complex64, beta complex64, y []complex64) {
	if m < 0 || n < 0 || lda < max(1, m) {
		panic("cfloat: Gemv bad dimensions")
	}
	switch t {
	case NoTrans:
		if len(x) < n || len(y) < m {
			panic("cfloat: Gemv vector too short")
		}
		if beta == 0 {
			for i := 0; i < m; i++ {
				y[i] = 0
			}
		} else if beta != 1 {
			for i := 0; i < m; i++ {
				y[i] *= beta
			}
		}
		for j := 0; j < n; j++ {
			axj := alpha * x[j]
			if axj == 0 {
				continue
			}
			col := a[j*lda : j*lda+m]
			for i, v := range col {
				y[i] += axj * v
			}
		}
	case Transpose, ConjTrans:
		if len(x) < m || len(y) < n {
			panic("cfloat: Gemv vector too short")
		}
		for j := 0; j < n; j++ {
			col := a[j*lda : j*lda+m]
			var re, im float64
			if t == ConjTrans {
				for i, v := range col {
					vr, vi := float64(real(v)), float64(imag(v))
					xr, xi := float64(real(x[i])), float64(imag(x[i]))
					re += vr*xr + vi*xi
					im += vr*xi - vi*xr
				}
			} else {
				for i, v := range col {
					vr, vi := float64(real(v)), float64(imag(v))
					xr, xi := float64(real(x[i])), float64(imag(x[i]))
					re += vr*xr - vi*xi
					im += vr*xi + vi*xr
				}
			}
			s := alpha * complex(float32(re), float32(im))
			if beta == 0 {
				y[j] = s
			} else {
				y[j] = beta*y[j] + s
			}
		}
	default:
		panic("cfloat: Gemv unknown Trans")
	}
}

// Gemm computes C = alpha*op(A)*op(B) + beta*C with column-major storage.
// A is used as op(A) of size m×k, B as op(B) of size k×n, C is m×n.
//
//lint:widen-ok deliberate float64 accumulation for numerical stability
func Gemm(ta, tb Trans, m, n, k int, alpha complex64, a []complex64, lda int, b []complex64, ldb int, beta complex64, c []complex64, ldc int) {
	if m < 0 || n < 0 || k < 0 || ldc < max(1, m) {
		panic("cfloat: Gemm bad dimensions")
	}
	if beta == 0 {
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				c[j*ldc+i] = 0
			}
		}
	} else if beta != 1 {
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				c[j*ldc+i] *= beta
			}
		}
	}
	// fast paths for the two layouts the pipeline hits hardest: plain
	// products (dense.Mul) and Vᴴ·X panels (rsvd, tlrmmm)
	switch {
	case ta == NoTrans && tb == NoTrans:
		for j := 0; j < n; j++ {
			cj := c[j*ldc : j*ldc+m]
			bj := b[j*ldb:]
			for l := 0; l < k; l++ {
				blj := alpha * bj[l]
				if blj == 0 {
					continue
				}
				al := a[l*lda : l*lda+m]
				for i, v := range al {
					cj[i] += v * blj
				}
			}
		}
		return
	case ta == ConjTrans && tb == NoTrans:
		for j := 0; j < n; j++ {
			cj := c[j*ldc : j*ldc+m]
			bj := b[j*ldb : j*ldb+k]
			for i := 0; i < m; i++ {
				ai := a[i*lda : i*lda+k]
				var re, im float64
				for l, v := range ai {
					vr, vi := float64(real(v)), float64(imag(v))
					br, bi := float64(real(bj[l])), float64(imag(bj[l]))
					// conj(a)*b
					re += vr*br + vi*bi
					im += vr*bi - vi*br
				}
				cj[i] += alpha * complex(float32(re), float32(im))
			}
		}
		return
	}
	getA := elemGetter(ta, a, lda)
	getB := elemGetter(tb, b, ldb)
	for j := 0; j < n; j++ {
		for l := 0; l < k; l++ {
			blj := alpha * getB(l, j)
			if blj == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				c[j*ldc+i] += getA(i, l) * blj
			}
		}
	}
}

func elemGetter(t Trans, a []complex64, lda int) func(i, j int) complex64 {
	switch t {
	case NoTrans:
		return func(i, j int) complex64 { return a[j*lda+i] }
	case Transpose:
		return func(i, j int) complex64 { return a[i*lda+j] }
	case ConjTrans:
		return func(i, j int) complex64 {
			v := a[i*lda+j]
			return complex(real(v), -imag(v))
		}
	}
	panic("cfloat: unknown Trans")
}

// SplitReIm splits a complex vector into separate real and imaginary
// float32 vectors, the storage layout the CS-2 kernel operates on.
func SplitReIm(x []complex64, re, im []float32) {
	if len(re) != len(x) || len(im) != len(x) {
		panic("cfloat: SplitReIm length mismatch")
	}
	for i, v := range x {
		re[i] = real(v)
		im[i] = imag(v)
	}
}

// MergeReIm fuses separate real/imaginary parts back into a complex vector.
func MergeReIm(re, im []float32, x []complex64) {
	if len(re) != len(x) || len(im) != len(x) {
		panic("cfloat: MergeReIm length mismatch")
	}
	for i := range x {
		x[i] = complex(re[i], im[i])
	}
}

// RealGemv computes y = A x + y over float32 with A m×n column-major.
// It is the primitive the CS-2 PE model executes: the complex MVM is
// decomposed into four of these (§6.6).
func RealGemv(m, n int, a []float32, lda int, x []float32, y []float32) {
	if lda < max(1, m) || len(x) < n || len(y) < m {
		panic("cfloat: RealGemv bad dimensions")
	}
	for j := 0; j < n; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		for i, v := range col {
			y[i] += v * xj
		}
	}
}
