package roofline

// Cache describes the per-core cache hierarchy the CPU TLR-MVM kernels
// block for. The roofline Machine type models aggregate peaks for the
// paper's cross-platform figures; Cache models the one knob the CPU
// kernels themselves can exploit — keeping a working panel resident
// while it is reused. Sizes are bytes.
type Cache struct {
	// L1D is the per-core L1 data cache.
	L1D int
	// L2 is the per-core private L2 cache.
	L2 int
	// Line is the cache-line size.
	Line int
}

// DefaultCache returns a conservative x86-class hierarchy (32 KiB L1d,
// 512 KiB L2, 64 B lines). Conservative on purpose: a panel sized for a
// smaller cache still fits a bigger one, while the converse thrashes.
func DefaultCache() Cache {
	return Cache{L1D: 32 << 10, L2: 512 << 10, Line: 64}
}

// clampPanel rounds a raw column count down to a multiple of quad (the
// kernel unroll width) within [quad, limit]; a sub-quad budget degrades
// to quad so tiny caches never yield a zero-width panel.
func clampPanel(cols, limit, quad int) int {
	if cols > limit {
		cols = limit
	}
	cols -= cols % quad
	if cols < quad {
		cols = quad
	}
	return cols
}

// GemvPanelCols returns the number of matrix columns one cache-blocked
// GEMV panel should span for a column length of rows elements with
// elemBytes bytes per element. The panel (all its columns, both planes
// for split storage — callers pass the combined element size) is sized
// to half the L2 so the streamed panel and the resident vectors coexist;
// the result is clamped to a multiple of 4, the unroll width of the
// cfloat SoA kernels. rows and elemBytes must be positive.
func (c Cache) GemvPanelCols(rows, elemBytes int) int {
	if rows <= 0 || elemBytes <= 0 {
		panic("roofline: GemvPanelCols nonpositive operand size")
	}
	budget := c.L2 / 2
	if budget <= 0 {
		budget = DefaultCache().L2 / 2
	}
	// rows*elemBytes > budget means a panel narrower than one column;
	// testing it by division keeps a huge rows from wrapping the product.
	cols := 0
	if rows <= budget/elemBytes {
		cols = budget / (rows * elemBytes)
	}
	// A panel wider than 4096 columns stops paying for itself: the
	// vectors it shares the cache with are tiny by comparison.
	return clampPanel(cols, 4096, 4)
}
