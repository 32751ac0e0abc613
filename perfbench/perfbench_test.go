package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/mdd"
	"repro/internal/mddserve"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/tlr"
)

var _ lsqr.Operator = (*timingOperator)(nil)

const (
	testNB  = 8
	testAcc = 1e-4
)

// smallProblem builds a survey small enough for unit tests, with its
// dense and TLR kernels.
func smallProblem(t *testing.T) (*seismic.Dataset, *mdc.DenseKernel, *mdc.TLRKernel) {
	t.Helper()
	ds, err := seismic.Generate(seismic.Options{
		Geom: seismic.Geometry{NsX: 8, NsY: 6, NrX: 6, NrY: 4, Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300},
		Nt:   64, Dt: 0.004,
	})
	if err != nil {
		t.Fatal(err)
	}
	hds, _ := ds.Reorder(sfc.Hilbert)
	dk, err := mdc.NewDenseKernel(hds.K)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := mdc.CompressKernel(dk, tlr.Options{NB: testNB, Tol: testAcc})
	if err != nil {
		t.Fatal(err)
	}
	return hds, dk, tk
}

// perturbKernel changes one element of every forward product's output:
// the negative control that the correctness checks must catch.
type perturbKernel struct{ tracedKernel }

func (p perturbKernel) Apply(f int, x, y []complex64) {
	p.tracedKernel.Apply(f, x, y)
	y[0] *= 1.5
}

func (p perturbKernel) ApplyChecked(f int, x, y []complex64) error {
	err := p.tracedKernel.ApplyChecked(f, x, y)
	y[0] *= 1.5
	return err
}

func randVec(n int, seed float32) []complex64 {
	x := make([]complex64, n)
	for i := range x {
		v := float32(i)*0.37 + seed
		x[i] = complex(float32(math.Sin(float64(v))), float32(math.Cos(float64(2*v))))
	}
	return x
}

func TestTimingKernelKeepsInterfacesAndProducts(t *testing.T) {
	_, _, tk := smallProblem(t)
	wrapped := newTimingKernel(tk, newTracer())
	for _, iface := range []reflect.Type{
		reflect.TypeOf((*mdc.Kernel)(nil)).Elem(),
		reflect.TypeOf((*mdc.NormalKernel)(nil)).Elem(),
		reflect.TypeOf((*mdc.CheckedKernel)(nil)).Elem(),
	} {
		if got, want := reflect.TypeOf(wrapped).Implements(iface), reflect.TypeOf(tk).Implements(iface); got != want {
			t.Errorf("timing kernel implements %v: %v, *mdc.TLRKernel: %v", iface, got, want)
		}
	}
	m, n := tk.Rows(), tk.Cols()
	type product func(k tracedKernel, f int, x, y []complex64)
	products := map[string]struct {
		in, out int
		run     product
	}{
		"Apply":        {n, m, func(k tracedKernel, f int, x, y []complex64) { k.Apply(f, x, y) }},
		"ApplyAdjoint": {m, n, func(k tracedKernel, f int, x, y []complex64) { k.ApplyAdjoint(f, x, y) }},
		"ApplyNormal":  {n, n, func(k tracedKernel, f int, x, y []complex64) { k.ApplyNormal(f, x, y) }},
		"ApplyChecked": {n, m, func(k tracedKernel, f int, x, y []complex64) {
			if err := k.ApplyChecked(f, x, y); err != nil {
				t.Fatal(err)
			}
		}},
		"ApplyAdjointChecked": {m, n, func(k tracedKernel, f int, x, y []complex64) {
			if err := k.ApplyAdjointChecked(f, x, y); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for name, p := range products {
		for f := 0; f < tk.NumFreqs(); f++ {
			x := randVec(p.in, float32(f))
			want, got := make([]complex64, p.out), make([]complex64, p.out)
			p.run(tk, f, x, want)
			p.run(wrapped, f, x, got)
			for i := range want {
				if math.Float32bits(real(got[i])) != math.Float32bits(real(want[i])) ||
					math.Float32bits(imag(got[i])) != math.Float32bits(imag(want[i])) {
					t.Fatalf("%s frequency %d element %d: wrapped %v, bare %v", name, f, i, got[i], want[i])
				}
			}
		}
	}
	if spans := wrapped.tr.snapshot(); len(spans) != len(products)*tk.NumFreqs() {
		t.Errorf("%d spans recorded, want one per product (%d)", len(spans), len(products)*tk.NumFreqs())
	}
}

func TestTracedSolveMatchesInvert(t *testing.T) {
	ds, _, tk := smallProblem(t)
	prob, err := mdd.NewProblem(ds, tk)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	ts, err := newTracedSolver(ds, tk, tr)
	if err != nil {
		t.Fatal(err)
	}
	opts := lsqr.Options{MaxIters: lsqrIters}
	want, err := prob.Invert(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ts.invert(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkIdentical([]*mdd.Solution{{VS: 3, X: got.X}}, []*mdd.Solution{want}); err != nil {
		t.Fatal(err)
	}
	// Every named layer's self time, with the kernel spans' union under
	// each operator call, adds up to the solve span.
	spans := tr.snapshot()
	self := selfTimes(spans)
	var root, opWall int64
	for _, s := range spans {
		switch s.Name {
		case spanSolve:
			root += s.dur()
		case spanApply, spanAdjoint:
			opWall += s.dur()
		}
	}
	if sum := self[spanSolve] + self[spanLSQR] + opWall; sum != root {
		t.Errorf("layer times add to %d ns, solve span is %d ns", sum, root)
	}
	// LSQR starts with one adjoint product, then makes one forward and
	// one adjoint product per iteration.
	calls := byName(spans)
	if nf, na := len(calls[spanApply]), len(calls[spanAdjoint]); nf != lsqrIters || na != lsqrIters+1 {
		t.Errorf("%d forward and %d adjoint operator calls, want %d and %d", nf, na, lsqrIters, lsqrIters+1)
	}
}

func TestUnionAndSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "child", Start: 70, End: 80},
	}
	if got := union(spans[1:]); got != 60 {
		t.Errorf("union = %d, want 60", got)
	}
	self := selfTimes(spans)
	if self["root"] != 40 || self["child"] != 70 {
		t.Errorf("self times %v, want root 40 and child 70", self)
	}
}

func TestChecksCatchPerturbedKernel(t *testing.T) {
	ds, dk, tk := smallProblem(t)
	opts := lsqr.Options{MaxIters: lsqrIters}
	dense, err := mdd.NewProblem(ds, dk)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := mdd.NewProblem(ds, tk)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := mdd.NewProblem(ds, perturbKernel{tk})
	if err != nil {
		t.Fatal(err)
	}
	vss := []int{2, 9}

	t.Run("solve", func(t *testing.T) {
		for _, c := range []struct {
			prob *mdd.Problem
			fail bool
		}{{clean, false}, {bad, true}} {
			sol, err := c.prob.Invert(vss[0], opts)
			if err != nil {
				t.Fatal(err)
			}
			err = checkSolve(c.prob, dense, vss[0], sol.X, testNB, testAcc)
			if (err != nil) != c.fail {
				t.Errorf("perturbed=%v: checkSolve returned %v", c.fail, err)
			}
			if err != nil {
				t.Logf("perturbed kernel: %v", err)
			}
		}
	})

	t.Run("line-ooc", func(t *testing.T) {
		want, err := clean.InvertLine(vss, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		again, err := clean.InvertLine(vss, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkIdentical(again, want); err != nil {
			t.Errorf("repeated line inversion: %v", err)
		}
		got, err := bad.InvertLine(vss, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkIdentical(got, want); err == nil {
			t.Error("perturbed kernel passed the bit-identity check")
		} else {
			t.Logf("perturbed kernel: %v", err)
		}
	})

	t.Run("serve-open", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds the serving pool")
		}
		srv, err := startServer()
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		spec := poolSpec(0)
		spec.Type, spec.VS, spec.Iters = mddserve.JobMDD, serveVS[1], lsqrIters
		j := &jobRun{arrival: arrival{spec: spec, tenant: "test"}}
		j.run(context.Background(), srv.Handler())
		if !j.done() {
			t.Fatalf("mdd job did not finish: %v", j.err)
		}
		refs, err := newServeRefs()
		if err != nil {
			t.Fatal(err)
		}
		rep := newReport()
		checkServe(rep, []*jobRun{j}, refs)
		if len(rep.problems) != 0 {
			t.Fatalf("served result does not match its reference: %v", rep.problems)
		}
		refs[0].prob.K = perturbKernel{refs[0].kernel}
		refs[0].mdd = map[int]mddOutcome{}
		rep = newReport()
		checkServe(rep, []*jobRun{j}, refs)
		if len(rep.problems) == 0 {
			t.Error("a reference with a perturbed kernel passed the serve check")
		} else {
			t.Logf("perturbed reference: %v", rep.problems)
		}
	})
}

func TestScheduleIsSeededWithExactCounts(t *testing.T) {
	const measure = 30 * time.Second
	a, b := schedule(7, measure), schedule(7, measure)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, measure)) {
		t.Fatal("different seeds gave the same schedule")
	}
	perStep := make([]int, len(serveRates))
	kinds := map[mddserve.JobType]int{}
	fresh := 0
	for i, x := range a {
		perStep[x.step]++
		kinds[x.spec.Type]++
		if x.pool < 0 {
			fresh++
			if x.step == 0 {
				t.Errorf("arrival %d: a fresh spec in the low step", i)
			}
		}
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	step := measure.Seconds() / float64(len(serveRates))
	for s, r := range serveRates {
		if want := int(math.Round(r.perSec * step)); perStep[s] != want {
			t.Errorf("step %s: %d arrivals, want %d", r.name, perStep[s], want)
		}
	}
	if blocks := len(a) / mixBlock; kinds[mddserve.JobMDD] < blocks*mixMDD || fresh < (len(a)-perStep[0])/mixBlock-1 {
		t.Errorf("mix %v with %d fresh specs over %d arrivals", kinds, fresh, len(a))
	}
}

// TestSampleIdleKeepsOnlyUnoverlappedProbes runs the sampler beside
// simulated work: probes are kept only while no work is in progress and
// none starts during the probe.
func TestSampleIdleKeepsOnlyUnoverlappedProbes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		idle     func() (int64, bool)
		wantKept bool
	}{
		{"idle", func() (int64, bool) { return 3, true }, true},
		{"busy", func() (int64, bool) { return 3, false }, false},
		{"work starts during the probe", func() func() (int64, bool) {
			var n atomic.Int64
			return func() (int64, bool) { return n.Add(1), true }
		}(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var p speedProbe
			stop := p.sampleIdle(time.Millisecond, tc.idle)
			time.Sleep(60 * time.Millisecond)
			taken, kept := stop()
			if kept != len(p.probes) || kept > taken {
				t.Fatalf("%d taken, %d kept, %d probes recorded", taken, kept, len(p.probes))
			}
			if got := kept > 0; got != tc.wantKept {
				t.Errorf("%d of %d probes kept; want kept: %v", kept, taken, tc.wantKept)
			}
		})
	}
}

// TestFactorAtUsesTheNearestProbes scales a timed span by the probes
// around it, not by the run's median: a host that runs at full speed and
// then at half speed gives each phase its own factor.
func TestFactorAtUsesTheNearestProbes(t *testing.T) {
	t0 := time.Unix(0, 0)
	var p speedProbe
	for i := 0; i < 20; i++ {
		rate := float64(speedRefGFlops)
		if i >= 10 {
			rate /= 2
		}
		p.probes = append(p.probes, probe{t0.Add(time.Duration(i) * time.Second), rate})
	}
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	for _, tc := range []struct {
		from, to float64
		want     float64
	}{
		{2, 3, 1000},   // full speed: 1 s is 1 s at the reference
		{14, 15, 500},  // half speed: 1 s is 0.5 s at the reference
		{-5, -4, 1000}, // before the first probe: the first probes
		{30, 31, 500},  // after the last probe: the last probes
	} {
		if got := p.refMs(at(tc.from), at(tc.to)); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("span %g-%g s: %g ms at the reference, want %g", tc.from, tc.to, got, tc.want)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metric
// tables of main.go in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []struct{ name, unit string }
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, struct{ name, unit string }{m.Name, m.Unit})
	}
	for _, m := range bench.PerLayer {
		layer = append(layer, struct{ name, unit string }{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, main.go %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, main.go %v", layer, perLayer)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %s, implemented %d", strings.Join(names, ","), len(workloads))
	}
}
