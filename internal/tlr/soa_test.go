package tlr

// In-package tests for the stacked split-plane layout: the conversion is
// a pure permutation copy, so every element must survive tiles→panels
// bit for bit (NaNs and signed zeros included), the products must handle
// degenerate rank structure (zero-rank tiles), and a store-backed matrix
// must assemble its panels per product instead of keeping them resident.

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/dense"
)

func randDense(rng *rand.Rand, m, n int) *dense.Matrix {
	a := dense.New(m, n)
	for i := range a.Data {
		a.Data[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return a
}

// checkSoARoundTrip walks the stacked panels tile by tile and asserts
// bit-identity with the AoS factors — equivalently, that converting the
// layout back reproduces the original bases exactly.
func checkSoARoundTrip(t testing.TB, m *Matrix) {
	t.Helper()
	l := m.getSoA()
	for j := 0; j < m.NT; j++ {
		ld := m.tileCols(j)
		off := l.vOff[j]
		for i := 0; i < m.MT; i++ {
			v := m.Tile(i, j).V
			for kk := 0; kk < v.Cols; kk++ {
				for r := 0; r < ld; r++ {
					z := v.Data[kk*v.Stride+r]
					if math.Float32bits(real(z)) != math.Float32bits(l.vr[off+r]) ||
						math.Float32bits(imag(z)) != math.Float32bits(l.vi[off+r]) {
						t.Fatalf("V tile (%d,%d) col %d row %d: SoA round trip not bit-identical", i, j, kk, r)
					}
				}
				off += ld
			}
		}
		if off != l.vOff[j+1] {
			t.Fatalf("V panel %d: consumed %d elements, offsets say %d", j, off-l.vOff[j], l.vOff[j+1]-l.vOff[j])
		}
	}
	for i := 0; i < m.MT; i++ {
		ld := m.tileRows(i)
		off := l.uOff[i]
		for j := 0; j < m.NT; j++ {
			u := m.Tile(i, j).U
			for kk := 0; kk < u.Cols; kk++ {
				for r := 0; r < ld; r++ {
					z := u.Data[kk*u.Stride+r]
					if math.Float32bits(real(z)) != math.Float32bits(l.ur[off+r]) ||
						math.Float32bits(imag(z)) != math.Float32bits(l.ui[off+r]) {
						t.Fatalf("U tile (%d,%d) col %d row %d: SoA round trip not bit-identical", i, j, kk, r)
					}
				}
				off += ld
			}
		}
		if off != l.uOff[i+1] {
			t.Fatalf("U panel %d: consumed %d elements, offsets say %d", i, off-l.uOff[i], l.uOff[i+1]-l.uOff[i])
		}
	}
	// offset-table consistency: column- and row-stacked totals agree
	if l.colSeg[m.MT*m.NT] != l.rowSeg[m.MT*m.NT] {
		t.Fatalf("colSeg total %d != rowSeg total %d", l.colSeg[m.MT*m.NT], l.rowSeg[m.MT*m.NT])
	}
}

func TestSoARoundTripCompressedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for _, d := range [][3]int{{40, 40, 10}, {37, 29, 8}, {25, 70, 10}, {70, 25, 16}, {5, 5, 8}} {
		m, err := Compress(randDense(rng, d[0], d[1]), Options{NB: d[2], Tol: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		checkSoARoundTrip(t, m)
	}
}

// zeroRankMatrix assembles a matrix by literal (the precision / tlrio
// construction path: no Compress, no eager layout) with ragged edge
// tiles and some tiles at rank zero.
func zeroRankMatrix(rng *rand.Rand) *Matrix {
	const nb, mt, nt = 6, 3, 2
	mrows, ncols := 16, 11
	tiles := make([]*Tile, mt*nt)
	for i := 0; i < mt; i++ {
		for j := 0; j < nt; j++ {
			rows := min((i+1)*nb, mrows) - i*nb
			cols := min((j+1)*nb, ncols) - j*nb
			k := (i + j) % 3 // ranks 0, 1, 2
			tiles[i*nt+j] = &Tile{U: randDense(rng, rows, k), V: randDense(rng, cols, k)}
		}
	}
	return &Matrix{M: mrows, N: ncols, NB: nb, MT: mt, NT: nt, Tiles: tiles}
}

// TestSoAZeroRankTiles checks the lazily laid out products of a literal
// matrix with zero-rank tiles against the dense MVM of its
// reconstruction, which shares no code with the kernel.
func TestSoAZeroRankTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	m := zeroRankMatrix(rng)
	checkSoARoundTrip(t, m)
	a := m.Reconstruct()

	x := randDense(rng, m.N, 1).Data
	want := make([]complex64, m.M)
	got := make([]complex64, m.M)
	a.MulVec(x, want)
	m.MulVec(x, got)
	if e := relErrC(got, want); e > 1e-5 {
		t.Fatalf("forward with zero-rank tiles: relErr %g", e)
	}
	xa := randDense(rng, m.M, 1).Data
	wantA := make([]complex64, m.N)
	gotA := make([]complex64, m.N)
	a.MulVecConjTrans(xa, wantA)
	m.MulVecConjTrans(xa, gotA)
	if e := relErrC(gotA, wantA); e > 1e-5 {
		t.Fatalf("adjoint with zero-rank tiles: relErr %g", e)
	}
}

// sliceSource serves the tiles of an in-memory matrix through the
// TileSource interface, counting loads.
type sliceSource struct {
	tiles []*Tile
	loads atomic.Int64
}

func (s *sliceSource) Tile(idx int) (*Tile, error) {
	s.loads.Add(1)
	return s.tiles[idx], nil
}

func (s *sliceSource) Rank(idx int) int { return s.tiles[idx].Rank() }

// TestOutOfCoreKeepsNoPlanes: a store-backed matrix assembles every
// panel from its source on every product — no resident planes are ever
// built — and its products are bit-identical to the in-memory ones.
func TestOutOfCoreKeepsNoPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, mem := range []*Matrix{
		zeroRankMatrix(rng),
		compressOrDie(t, decayMatrix(rng, 37, 29), Options{NB: 8, Tol: 1e-4}),
	} {
		src := &sliceSource{tiles: mem.Tiles}
		ooc := NewOutOfCore(mem.M, mem.N, mem.NB, src)
		x := randDense(rng, mem.N, 1).Data
		xa := randDense(rng, mem.M, 1).Data
		want, got := make([]complex64, mem.M), make([]complex64, mem.M)
		wantA, gotA := make([]complex64, mem.N), make([]complex64, mem.N)
		for rep := 0; rep < 2; rep++ {
			before := src.loads.Load()
			mem.MulVec(x, want)
			ooc.MulVec(x, got)
			mem.MulVecConjTrans(xa, wantA)
			ooc.MulVecConjTrans(xa, gotA)
			// each product pulls every tile twice: once for its V panel,
			// once for its U panel
			if loads := src.loads.Load() - before; loads != int64(4*len(mem.Tiles)) {
				t.Fatalf("rep %d: %d tile loads for two products over %d tiles, want %d",
					rep, loads, len(mem.Tiles), 4*len(mem.Tiles))
			}
			if e := relErrC(got, want); e != 0 {
				t.Fatalf("rep %d: store-backed MulVec relErr %g, want bit-identical", rep, e)
			}
			if e := relErrC(gotA, wantA); e != 0 {
				t.Fatalf("rep %d: store-backed MulVecConjTrans relErr %g, want bit-identical", rep, e)
			}
		}
		if l := ooc.getSoA(); l.vr != nil || l.vi != nil || l.ur != nil || l.ui != nil {
			t.Fatal("store-backed matrix built resident panel planes")
		}
	}
}

func relErrC(got, want []complex64) float64 {
	var num, den float64
	for i := range want {
		dr := float64(real(got[i]) - real(want[i]))
		di := float64(imag(got[i]) - imag(want[i]))
		num += dr*dr + di*di
		wr, wi := float64(real(want[i])), float64(imag(want[i]))
		den += wr*wr + wi*wi
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// FuzzSoARoundTrip fuzzes the bit-identity property over matrix shapes,
// tile sizes, and accuracy targets: whatever the compressor produces,
// the stacked split-plane conversion must be a lossless permutation.
func FuzzSoARoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(17), uint8(5))
	f.Add(int64(2), uint8(40), uint8(40), uint8(10))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, mRaw, nRaw, nbRaw uint8) {
		mr := 1 + int(mRaw)%48
		nc := 1 + int(nRaw)%48
		nb := 1 + int(nbRaw)%12
		rng := rand.New(rand.NewSource(seed))
		m, err := Compress(randDense(rng, mr, nc), Options{NB: nb, Tol: 1e-3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkSoARoundTrip(t, m)
	})
}
