// Differential correctness tests: every TLR-MVM execution path against
// the dense reference and each other, via the shared testkit oracle.
// External test package: testkit imports tlr, so these live in tlr_test.
package tlr_test

import (
	"testing"

	"repro/internal/dense"
	"repro/internal/testkit"
	"repro/internal/tlr"
)

// TestDifferentialMatrixClasses runs the oracle over the matrix classes
// the paper exercises — incompressible Gaussian, rank-decaying,
// Hilbert-like, and a synthetic seismic frequency slice — across tile
// sizes and accuracy targets.
func TestDifferentialMatrixClasses(t *testing.T) {
	seismic, err := testkit.SeismicSlice(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		a    *dense.Matrix
		nb   int
		tol  float64
	}{
		{"gaussian-40x40-nb10", testkit.Mat(testkit.NewRNG(101), 40, 40), 10, 1e-4},
		{"gaussian-37x29-ragged", testkit.Mat(testkit.NewRNG(102), 37, 29), 8, 1e-4},
		{"decay-48x48-nb12", testkit.DecayMat(testkit.NewRNG(103), 48, 48, 0.5), 12, 1e-3},
		{"hilbert-50x50-nb10", testkit.HilbertMat(50, 50), 10, 1e-5},
		{"seismic-slice-nb8", seismic, 8, 1e-4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := testkit.New(tc.a, testkit.Config{
				TLROpts: tlr.Options{NB: tc.nb, Tol: tc.tol},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.CompressionHolds(); err != nil {
				t.Fatal(err)
			}
			if err := o.Check(testkit.NewRNG(7), 3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialCompressionMethods runs the oracle once per compressor
// backend: the bases differ, but every execution path must still agree
// with the dense reference within the acc-derived budget.
func TestDifferentialCompressionMethods(t *testing.T) {
	a := testkit.DecayMat(testkit.NewRNG(110), 40, 40, 0.6)
	for _, m := range []tlr.Method{tlr.MethodSVD, tlr.MethodRRQR, tlr.MethodRSVD, tlr.MethodACA} {
		t.Run(m.String(), func(t *testing.T) {
			opts := tlr.Options{NB: 10, Tol: 1e-3, Method: m}
			if m == tlr.MethodRSVD {
				opts.Rng = testkit.NewRNG(111)
			}
			o, err := testkit.New(a, testkit.Config{TLROpts: opts})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Check(testkit.NewRNG(8), 2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTLRAdjointConsistency checks ⟨Ax, y⟩ ≈ ⟨x, Aᴴy⟩ directly on the
// compressed operator for every compression method — the property the
// LSQR/CGLS inversions rest on.
func TestTLRAdjointConsistency(t *testing.T) {
	a := testkit.DecayMat(testkit.NewRNG(130), 45, 35, 0.55)
	tm, err := tlr.Compress(a, tlr.Options{NB: 9, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	op := tlrOperator{tm}
	if gap := testkit.AdjointGap(op, testkit.NewRNG(131), 5); gap > 1e-4 {
		t.Errorf("TLR adjoint gap %g", gap)
	}
}

type tlrOperator struct{ t *tlr.Matrix }

func (o tlrOperator) Rows() int                     { return o.t.M }
func (o tlrOperator) Cols() int                     { return o.t.N }
func (o tlrOperator) Apply(x, y []complex64)        { o.t.MulVec(x, y) }
func (o tlrOperator) ApplyAdjoint(x, y []complex64) { o.t.MulVecConjTrans(x, y) }
