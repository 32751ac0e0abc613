// Package mdc exercises the allocfree seeded registry (path suffix
// internal/mdc): seeded kernels are checked even without their marker —
// and the missing marker itself is reported — while a seed whose
// function no longer exists flags the registry as stale.
package mdc // want `hot-path registry names internal/mdc\.TLRKernel\.Apply but no such function exists` `hot-path registry names internal/mdc\.TLRKernel\.ApplyChecked but no such function exists`

type DenseKernel struct {
	data []complex64
	rows int
}

// Apply is a registered hot path whose hotpath marker was (wrongly)
// dropped: the seed still forces the allocation check and reports the
// missing marker.
func (k *DenseKernel) Apply(f int, x, y []complex64) { // want `registered hot path DenseKernel\.Apply must carry a //lint:hotpath marker`
	for i := range y {
		buf := make([]complex64, k.rows) // want `make allocates in a hot path`
		copy(buf, x)
		y[i] = buf[0]
	}
}
