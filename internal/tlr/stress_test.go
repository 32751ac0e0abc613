// Concurrency stress test for the store-backed TLR-MVM, meant to run
// under -race (`make race-stress`): many goroutines sharing one matrix
// served from a tile cache at half its footprint, as a line inversion
// runs its workers, each alternating forward and adjoint products while
// the cache faults and evicts underneath. Guarded by testing.Short so
// quick suites skip it.
package tlr_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/opstore"
	"repro/internal/testkit"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

func TestStressMulVecOutOfCoreConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run via make race-stress")
	}
	rng := testkit.NewRNG(81)
	mem, err := tlr.Compress(testkit.DecayMat(rng, 96, 80, 0.5), tlr.Options{NB: 16, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	k := &tlrio.Kernel{Freqs: []float64{0}, Mats: []*tlr.Matrix{mem}}
	if err := tlrio.WritePaged(&img, k, tlrio.PagedOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := opstore.OpenBytes(img.Bytes(), mem.CompressedBytes()/2)
	if err != nil {
		t.Fatal(err)
	}
	ooc, err := st.Matrix(0)
	if err != nil {
		t.Fatal(err)
	}
	x, xa := testkit.Vec(rng, mem.N), testkit.Vec(rng, mem.M)
	want, wantA := make([]complex64, mem.M), make([]complex64, mem.N)
	mem.MulVec(x, want)
	mem.MulVecConjTrans(xa, wantA)

	const workers, rounds = 6, 10
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			y, ya := make([]complex64, mem.M), make([]complex64, mem.N)
			for r := 0; r < rounds; r++ {
				ooc.MulVec(x, y)
				ooc.MulVecConjTrans(xa, ya)
				if d := testkit.MaxULPDist(y, want); d != 0 {
					errs[w] = fmt.Errorf("worker %d round %d: MulVec %d ULPs from in-memory", w, r, d)
					return
				}
				if d := testkit.MaxULPDist(ya, wantA); d != 0 {
					errs[w] = fmt.Errorf("worker %d round %d: MulVecConjTrans %d ULPs from in-memory", w, r, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Stats(); s.Evictions == 0 || s.ResidentBytes > s.Budget {
		t.Fatalf("cache at half the footprint: %+v, want evictions and resident bytes within budget", s)
	}
}
