package tlr

// A product needs split input/output planes, the column- and row-stacked
// intermediates and, for store-backed matrices, one panel buffer.
// Allocating them per product put makes on the hot path; they are
// hoisted here into a per-matrix free list so steady-state products
// allocate nothing (the allocfree analyzer proves it statically,
// testkit's AllocsPerRun gate proves it at runtime). A channel free list
// rather than sync.Pool: the pool may drop entries at any GC, which
// makes AllocsPerRun nondeterministic, and rather than a single cached
// buffer because line inversions drive one Matrix from many goroutines
// concurrently.
const scratchPoolCap = 16

// mvmScratch is one checkout of the product intermediates.
type mvmScratch struct {
	// xr/xi hold the input vector split once per product and outR/outI
	// the output blocks before their merge (length max(M,N) each).
	xr, xi     []float32
	outR, outI []float32
	// ycR/ycI and yuR/yuI are the column- and row-stacked intermediate
	// planes (length TotalRank).
	ycR, ycI []float32
	yuR, yuI []float32
	// panelR/panelI receive one assembled panel of a store-backed matrix
	// (length soaLayout.maxPanel); nil for in-memory matrices.
	panelR, panelI []float32
}

// getScratch checks a scratch set out of the free list, allocating a
// fresh one when the list is empty (first calls and bursts of
// concurrent products beyond the pool capacity).
//
//lint:alloc-ok free-list checkout; the fallback allocation happens only on first use and on concurrency bursts beyond the pool cap
func (t *Matrix) getScratch(l *soaLayout) *mvmScratch {
	select {
	case s := <-l.free:
		return s
	default:
	}
	tr := l.rowSeg[len(l.rowSeg)-1]
	mn := max(t.M, t.N)
	s := &mvmScratch{
		xr:   make([]float32, mn),
		xi:   make([]float32, mn),
		outR: make([]float32, mn),
		outI: make([]float32, mn),
		ycR:  make([]float32, tr),
		ycI:  make([]float32, tr),
		yuR:  make([]float32, tr),
		yuI:  make([]float32, tr),
	}
	if t.OutOfCore() {
		s.panelR = make([]float32, l.maxPanel)
		s.panelI = make([]float32, l.maxPanel)
	}
	return s
}

// putScratch returns a scratch set to the free list, dropping it when
// the list is full.
func (l *soaLayout) putScratch(s *mvmScratch) {
	select {
	case l.free <- s:
	default:
	}
}
