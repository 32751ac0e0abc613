package tlr

// The TLR-MVM kernel: MulVec and MulVecConjTrans, the only two products
// a Matrix offers. The per-tile U/V bases are laid out in the paper's
// stacked form (Fig. 4): one column-major panel per tile column holding
// every V base of that column stacked along the rank dimension, and one
// panel per tile row holding the U bases likewise — each panel split
// into float32 real/imaginary planes. Two things fall out of the layout:
//
//   - Phase 1 and phase 3 become MT+NT long skinny GEMVs over contiguous
//     stride-1 planes instead of 2·MT·NT per-tile complex products, so
//     the cfloat four-real inner loops run as unrolled FMA chains with
//     the vector endpoints split exactly once per product.
//   - The phase-2 shuffle (Fig. 6) becomes explicit: the column-stacked
//     intermediate (colSeg offsets) is permuted into the row-stacked
//     ordering (rowSeg offsets) between the two batched phases, which is
//     the same data movement the CS-2 mapping pays as fabric traffic.
//
// Panels are swept in cache blocks of soaLayout.panelCols stacked
// columns, sized from the roofline cache model so a block plus the
// resident vectors fits in half the L2.
//
// OutOfCore chooses where a panel comes from. An in-memory matrix keeps
// every panel resident, built once at Compress (or on the first product
// for matrices assembled elsewhere). A store-backed matrix keeps none:
// each product assembles one panel at a time from its tiles (tileAt)
// into a per-product buffer sized to the largest panel, so what stays
// resident is the tile cache's budget. An assembled panel holds the same
// bytes as the resident one and is swept with the same blocking, so the
// two kinds of matrix give bit-identical products.

import (
	"sync"
	"sync/atomic"

	"repro/internal/cfloat"
	"repro/internal/roofline"
)

// soaLayout is the stacked split-plane factor layout of one Matrix.
type soaLayout struct {
	// rowSeg and colSeg are the row- and column-stacked intermediate
	// offsets, length MT·NT+1 each: tile (i,j) owns
	// yu[rowSeg[i*NT+j]:rowSeg[i*NT+j+1]] and
	// yc[colSeg[j*MT+i]:colSeg[j*MT+i+1]].
	rowSeg, colSeg []int
	// vOff and uOff are the panel offsets: V panel j is
	// tileCols(j)×colK(j) column-major (leading dimension tileCols(j))
	// at vOff[j], tiles stacked in tile-row order along the rank
	// dimension; U panel i is tileRows(i)×rowK(i) at uOff[i], tiles
	// stacked in tile-column order.
	vOff, uOff []int
	// vr/vi and ur/ui are the resident V and U panel planes at those
	// offsets; nil for store-backed matrices.
	vr, vi []float32
	ur, ui []float32
	// maxPanel is the element count of the largest panel, the size of a
	// store-backed product's panel buffer.
	maxPanel int
	// panelCols is the cache-block width (stacked rank columns per GEMV
	// panel sweep), quad-aligned, from roofline.Cache.GemvPanelCols.
	panelCols int
	// free is the product scratch free list (see scratch.go).
	free chan *mvmScratch
}

// soaState is embedded in Matrix; a separate struct keeps the keyed
// Matrix literals in precision and tlrio valid, so matrices built
// without Compress lay themselves out on their first product.
type soaState struct {
	soaReady atomic.Uint32
	soaMu    sync.Mutex
	soa      *soaLayout
}

// getSoA returns the layout, building it once per Matrix. A mutex-guarded
// slow path behind an atomic flag instead of sync.Once: the fast path
// must stay free of the method-value closure `once.Do(...)` would
// allocate per call.
func (t *Matrix) getSoA() *soaLayout {
	if t.soaReady.Load() == 1 {
		return t.soa
	}
	t.buildSoA()
	return t.soa
}

// buildSoA computes the offset tables and, for in-memory matrices, the
// resident panel planes, once per Matrix.
//
//lint:alloc-ok one-time lazy build of the layout; every later product takes the atomic-flag fast path in getSoA
func (t *Matrix) buildSoA() {
	t.soaMu.Lock()
	defer t.soaMu.Unlock()
	if t.soaReady.Load() == 1 {
		return
	}
	defer obsSoABuild.Start().End()
	nTiles := t.MT * t.NT
	l := &soaLayout{
		rowSeg: make([]int, nTiles+1),
		colSeg: make([]int, nTiles+1),
		vOff:   make([]int, t.NT+1),
		uOff:   make([]int, t.MT+1),
		free:   make(chan *mvmScratch, scratchPoolCap),
	}
	for idx := 0; idx < nTiles; idx++ {
		l.rowSeg[idx+1] = l.rowSeg[idx] + t.rankAt(idx)
	}
	c := 0
	for j := 0; j < t.NT; j++ {
		for i := 0; i < t.MT; i++ {
			l.colSeg[c+1] = l.colSeg[c] + t.rankAt(i*t.NT+j)
			c++
		}
	}
	for j := 0; j < t.NT; j++ {
		kc := l.colSeg[(j+1)*t.MT] - l.colSeg[j*t.MT]
		l.vOff[j+1] = l.vOff[j] + t.tileCols(j)*kc
		l.maxPanel = max(l.maxPanel, l.vOff[j+1]-l.vOff[j])
	}
	for i := 0; i < t.MT; i++ {
		kr := l.rowSeg[(i+1)*t.NT] - l.rowSeg[i*t.NT]
		l.uOff[i+1] = l.uOff[i] + t.tileRows(i)*kr
		l.maxPanel = max(l.maxPanel, l.uOff[i+1]-l.uOff[i])
	}
	if !t.OutOfCore() {
		l.vr = make([]float32, l.vOff[t.NT])
		l.vi = make([]float32, l.vOff[t.NT])
		l.ur = make([]float32, l.uOff[t.MT])
		l.ui = make([]float32, l.uOff[t.MT])
		for j := 0; j < t.NT; j++ {
			t.fillVPanel(j, l.vr[l.vOff[j]:l.vOff[j+1]], l.vi[l.vOff[j]:l.vOff[j+1]])
		}
		for i := 0; i < t.MT; i++ {
			t.fillUPanel(i, l.ur[l.uOff[i]:l.uOff[i+1]], l.ui[l.uOff[i]:l.uOff[i+1]])
		}
	}
	l.panelCols = roofline.DefaultCache().GemvPanelCols(t.NB, 8)
	t.soa = l
	t.soaReady.Store(1)
}

// fillVPanel writes tile column j's stacked V panel into the split
// planes dr/di (length tileCols(j)·colK(j)). Registered hot path — a
// store-backed product runs it once per tile column and must stay
// allocation-free at cache-hit steady state.
//
//lint:hotpath
func (t *Matrix) fillVPanel(j int, dr, di []float32) {
	ld := t.tileCols(j)
	dst := 0
	for i := 0; i < t.MT; i++ {
		v := t.tileAt(i*t.NT + j).V
		for kk := 0; kk < v.Cols; kk++ {
			cfloat.SplitReIm(v.Data[kk*v.Stride:kk*v.Stride+ld], dr[dst:dst+ld], di[dst:dst+ld])
			dst += ld
		}
	}
}

// fillUPanel writes tile row i's stacked U panel into dr/di (length
// tileRows(i)·rowK(i)). Registered hot path, like fillVPanel.
//
//lint:hotpath
func (t *Matrix) fillUPanel(i int, dr, di []float32) {
	ld := t.tileRows(i)
	dst := 0
	for j := 0; j < t.NT; j++ {
		u := t.tileAt(i*t.NT + j).U
		for kk := 0; kk < u.Cols; kk++ {
			cfloat.SplitReIm(u.Data[kk*u.Stride:kk*u.Stride+ld], dr[dst:dst+ld], di[dst:dst+ld])
			dst += ld
		}
	}
}

// vPanel returns the planes of tile column j's V panel: resident for an
// in-memory matrix, assembled into the scratch panel buffer for a
// store-backed one.
func (t *Matrix) vPanel(j int, l *soaLayout, s *mvmScratch) (pr, pi []float32) {
	p0, p1 := l.vOff[j], l.vOff[j+1]
	if !t.OutOfCore() {
		return l.vr[p0:p1], l.vi[p0:p1]
	}
	pr, pi = s.panelR[:p1-p0], s.panelI[:p1-p0]
	t.fillVPanel(j, pr, pi)
	return pr, pi
}

// uPanel is vPanel for tile row i's U panel.
func (t *Matrix) uPanel(i int, l *soaLayout, s *mvmScratch) (pr, pi []float32) {
	p0, p1 := l.uOff[i], l.uOff[i+1]
	if !t.OutOfCore() {
		return l.ur[p0:p1], l.ui[p0:p1]
	}
	pr, pi = s.panelR[:p1-p0], s.panelI[:p1-p0]
	t.fillUPanel(i, pr, pi)
	return pr, pi
}

// MulVec computes y = A x via the three-phase TLR-MVM. x must have
// length N, y length M. Safe for concurrent use: every product checks
// out its own scratch.
func (t *Matrix) MulVec(x, y []complex64) {
	if len(x) < t.N || len(y) < t.M {
		panic("tlr: MulVec vector too short")
	}
	defer obsMVM.Start().End()
	meterMVM(obsMVMMeter, t)
	l := t.getSoA()
	s := t.getScratch(l)
	cfloat.SplitReIm(x[:t.N], s.xr[:t.N], s.xi[:t.N])
	// Phase 1 (Fig. 5): V-batch. The yc segment of tile column j is
	// Vcatⱼᴴ · x_j, one stacked GEMV per tile column.
	sp1 := obsPhase1.Start()
	for j := 0; j < t.NT; j++ {
		t.forwardVCol(j, l, s)
	}
	sp1.End()
	// Phase 2 (Fig. 6): shuffle from the column-stacked to the
	// row-stacked ordering.
	t.shuffleColToRow(l, s)
	// Phase 3 (Fig. 7): U-batch. y_i = Ucatᵢ · yu_i, one stacked GEMV
	// per tile row, merged straight into the caller's y.
	sp3 := obsPhase3.Start()
	for i := 0; i < t.MT; i++ {
		t.forwardURow(i, l, s, y)
	}
	sp3.End()
	l.putScratch(s)
}

// MulVecConjTrans computes y = Aᴴ x, the adjoint TLR-MVM required by the
// LSQR solver: tile (i,j) ≈ U Vᴴ contributes V (Uᴴ x_i) to output block
// j. x must have length M, y length N.
func (t *Matrix) MulVecConjTrans(x, y []complex64) {
	if len(x) < t.M || len(y) < t.N {
		panic("tlr: MulVecConjTrans vector too short")
	}
	defer obsAdjoint.Start().End()
	meterMVM(obsAdjMeter, t)
	l := t.getSoA()
	s := t.getScratch(l)
	cfloat.SplitReIm(x[:t.M], s.xr[:t.M], s.xi[:t.M])
	// adjoint phase 1: yu segment of row i = Ucatᵢᴴ · x_i
	for i := 0; i < t.MT; i++ {
		t.adjointURow(i, l, s)
	}
	t.shuffleRowToCol(l, s)
	// adjoint phase 3: y_j = Vcatⱼ · yc segment of column j
	for j := 0; j < t.NT; j++ {
		t.adjointVCol(j, l, s, y)
	}
	l.putScratch(s)
}

// forwardVCol runs phase 1 for tile column j: the column's yc segment =
// Vcatⱼᴴ · x_j, swept in cache-blocked panels. Registered hot path —
// must stay allocation-free.
//
//lint:hotpath
func (t *Matrix) forwardVCol(j int, l *soaLayout, s *mvmScratch) {
	m := t.tileCols(j)
	base := l.colSeg[j*t.MT]
	kc := l.colSeg[(j+1)*t.MT] - base
	outR := s.ycR[base : base+kc]
	outI := s.ycI[base : base+kc]
	for k := range outR {
		outR[k] = 0
		outI[k] = 0
	}
	xjr := s.xr[j*t.NB : j*t.NB+m]
	xji := s.xi[j*t.NB : j*t.NB+m]
	pr, pi := t.vPanel(j, l, s)
	for c0 := 0; c0 < kc; c0 += l.panelCols {
		cw := min(l.panelCols, kc-c0)
		cfloat.GemvConjSoAAcc(m, cw, pr[c0*m:], pi[c0*m:], m, xjr, xji, outR[c0:], outI[c0:])
	}
}

// forwardURow runs phase 3 for tile row i: y_i = Ucatᵢ · yu_i, swept in
// cache-blocked panels and merged into y. Registered hot path — must
// stay allocation-free.
//
//lint:hotpath
func (t *Matrix) forwardURow(i int, l *soaLayout, s *mvmScratch, y []complex64) {
	rows := t.tileRows(i)
	base := l.rowSeg[i*t.NT]
	kr := l.rowSeg[(i+1)*t.NT] - base
	or := s.outR[i*t.NB : i*t.NB+rows]
	oi := s.outI[i*t.NB : i*t.NB+rows]
	for k := range or {
		or[k] = 0
		oi[k] = 0
	}
	pr, pi := t.uPanel(i, l, s)
	for c0 := 0; c0 < kr; c0 += l.panelCols {
		cw := min(l.panelCols, kr-c0)
		cfloat.GemvSoAAcc(rows, cw, pr[c0*rows:], pi[c0*rows:], rows,
			s.yuR[base+c0:], s.yuI[base+c0:], or, oi)
	}
	cfloat.MergeReIm(or, oi, y[i*t.NB:i*t.NB+rows])
}

// adjointURow runs the adjoint phase 1 for tile row i: the row's yu
// segment = Ucatᵢᴴ · x_i. Registered hot path — must stay
// allocation-free.
//
//lint:hotpath
func (t *Matrix) adjointURow(i int, l *soaLayout, s *mvmScratch) {
	rows := t.tileRows(i)
	base := l.rowSeg[i*t.NT]
	kr := l.rowSeg[(i+1)*t.NT] - base
	outR := s.yuR[base : base+kr]
	outI := s.yuI[base : base+kr]
	for k := range outR {
		outR[k] = 0
		outI[k] = 0
	}
	xir := s.xr[i*t.NB : i*t.NB+rows]
	xii := s.xi[i*t.NB : i*t.NB+rows]
	pr, pi := t.uPanel(i, l, s)
	for c0 := 0; c0 < kr; c0 += l.panelCols {
		cw := min(l.panelCols, kr-c0)
		cfloat.GemvConjSoAAcc(rows, cw, pr[c0*rows:], pi[c0*rows:], rows, xir, xii, outR[c0:], outI[c0:])
	}
}

// adjointVCol runs the adjoint phase 3 for tile column j:
// y_j = Vcatⱼ · yc segment of column j, merged into y. Registered hot
// path — must stay allocation-free.
//
//lint:hotpath
func (t *Matrix) adjointVCol(j int, l *soaLayout, s *mvmScratch, y []complex64) {
	cols := t.tileCols(j)
	base := l.colSeg[j*t.MT]
	kc := l.colSeg[(j+1)*t.MT] - base
	or := s.outR[j*t.NB : j*t.NB+cols]
	oi := s.outI[j*t.NB : j*t.NB+cols]
	for k := range or {
		or[k] = 0
		oi[k] = 0
	}
	pr, pi := t.vPanel(j, l, s)
	for c0 := 0; c0 < kc; c0 += l.panelCols {
		cw := min(l.panelCols, kc-c0)
		cfloat.GemvSoAAcc(cols, cw, pr[c0*cols:], pi[c0*cols:], cols,
			s.ycR[base+c0:], s.ycI[base+c0:], or, oi)
	}
	cfloat.MergeReIm(or, oi, y[j*t.NB:j*t.NB+cols])
}

// shuffleColToRow permutes the column-stacked intermediate planes into
// the row-stacked ordering (Fig. 6). Registered hot path — must stay
// allocation-free.
//
//lint:hotpath
func (t *Matrix) shuffleColToRow(l *soaLayout, s *mvmScratch) {
	for j := 0; j < t.NT; j++ {
		for i := 0; i < t.MT; i++ {
			s0, s1 := l.colSeg[j*t.MT+i], l.colSeg[j*t.MT+i+1]
			d0 := l.rowSeg[i*t.NT+j]
			copy(s.yuR[d0:d0+s1-s0], s.ycR[s0:s1])
			copy(s.yuI[d0:d0+s1-s0], s.ycI[s0:s1])
		}
	}
}

// shuffleRowToCol is the inverse permutation. Registered hot path — must
// stay allocation-free.
//
//lint:hotpath
func (t *Matrix) shuffleRowToCol(l *soaLayout, s *mvmScratch) {
	for j := 0; j < t.NT; j++ {
		for i := 0; i < t.MT; i++ {
			d0, d1 := l.colSeg[j*t.MT+i], l.colSeg[j*t.MT+i+1]
			s0 := l.rowSeg[i*t.NT+j]
			copy(s.ycR[d0:d1], s.yuR[s0:s0+d1-d0])
			copy(s.ycI[d0:d1], s.yuI[s0:s0+d1-d0])
		}
	}
}
