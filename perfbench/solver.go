package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cfloat"
	"repro/internal/estimator"
	"repro/internal/lsqr"
	"repro/internal/mdc"
	"repro/internal/mdd"
	"repro/internal/opstore"
	"repro/internal/seismic"
	"repro/internal/sfc"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

// The solver workloads' dataset: the seismic.DemoOptions geometry (24×14
// sources over 20×12 receivers) at Nt=256 and a 30 Hz wavelet, so 28
// frequencies, Hilbert-ordered and compressed at nb=32, acc=1e-4. At this
// size TLR compresses the kernel 1.40× (12.9 MB), so the TLR products are
// the paper's regime rather than a kernel larger than its dense source.
const (
	solverNt  = 256
	solverNB  = 32
	solverAcc = 1e-4
	// lsqrIters is the paper's MDD iteration count (§6.2).
	lsqrIters = 30
	// solverSetups is how many times a solver run sets up, for the
	// median setup_s. A set-up takes about 4 s, so the run budget of the
	// benchmark allows two.
	solverSetups = 2
)

// solverData is the set-up product of the solver workloads.
type solverData struct {
	ds    *seismic.Dataset // Hilbert-ordered survey
	dense *mdc.DenseKernel
	tlr   *mdc.TLRKernel

	generate, reorder, compress time.Duration
}

func buildSolverData() (*solverData, error) {
	opts := seismic.DemoOptions()
	opts.Nt = solverNt
	t := time.Now()
	ds, err := seismic.Generate(opts)
	if err != nil {
		return nil, fmt.Errorf("generating survey: %w", err)
	}
	d := &solverData{generate: time.Since(t)}
	t = time.Now()
	d.ds, _ = ds.Reorder(sfc.Hilbert)
	d.reorder = time.Since(t)
	t = time.Now()
	if d.dense, err = mdc.NewDenseKernel(d.ds.K); err != nil {
		return nil, err
	}
	if d.tlr, err = mdc.CompressKernel(d.dense, tlr.Options{NB: solverNB, Tol: solverAcc}); err != nil {
		return nil, err
	}
	d.compress = time.Since(t)
	return d, nil
}

// setupLayers records the set-up phases and the kernel's exact counts.
func (d *solverData) setupLayers(layer map[string]float64) {
	layer["seismic.generate_s"] = d.generate.Seconds()
	layer["sfc.reorder_s"] = d.reorder.Seconds()
	layer["tlr.compress_s"] = d.compress.Seconds()
	kernelCounts(d.tlr, d.dense.Bytes(), layer)
}

// kernelCounts records the exact size and work counts of a TLR kernel.
func kernelCounts(k *mdc.TLRKernel, denseBytes int64, layer map[string]float64) {
	var rank, tiles int
	for _, m := range k.Mats {
		rank += m.TotalRank()
		tiles += m.MT * m.NT
	}
	w := workOf(k)
	layer["tlr.compression_ratio"] = float64(denseBytes) / float64(k.Bytes())
	layer["tlr.mean_rank"] = float64(rank) / float64(tiles)
	// One LSQR iteration runs one forward and one adjoint product per
	// frequency, and the adjoint costs what the forward product does.
	layer["tlr.flops_per_iter"] = 2 * w.flops * float64(len(k.Mats))
	layer["tlr.flop_per_byte"] = w.flops / w.bytes
}

// productWork is the mean work of one per-frequency product of a kernel:
// flops and computed bytes moved (tlr.Matrix.FlopCount and ByteCount).
type productWork struct{ flops, bytes float64 }

func workOf(k *mdc.TLRKernel) productWork {
	var w productWork
	for _, m := range k.Mats {
		w.flops += float64(m.FlopCount())
		w.bytes += float64(m.ByteCount())
	}
	n := float64(len(k.Mats))
	return productWork{w.flops / n, w.bytes / n}
}

// tracedSolver makes the calls mdd.Problem.Invert makes — the problem's
// frequency operator over the virtual source's data, solved by
// lsqr.Solve — with the kernel and the operator wrapped in timing spans.
type tracedSolver struct {
	prob *mdd.Problem // its kernel is k
	k    *timingKernel
	tr   *tracer
}

func newTracedSolver(ds *seismic.Dataset, k tracedKernel, tr *tracer) (*tracedSolver, error) {
	tk := newTimingKernel(k, tr)
	prob, err := mdd.NewProblem(ds, tk)
	if err != nil {
		return nil, err
	}
	return &tracedSolver{prob: prob, k: tk, tr: tr}, nil
}

func (s *tracedSolver) invert(vs int, opts lsqr.Options) (*lsqr.Result, error) {
	tr := s.tr
	trace, root, lid := tr.newID(), tr.newID(), tr.newID()
	rs := tr.now()
	y := s.prob.Data(vs)
	op := &timingOperator{op: s.prob.Operator(), k: s.k, tr: tr, trace: trace, parent: lid}
	ls := tr.now()
	res, err := lsqr.Solve(op, y, opts)
	tr.record(span{ID: lid, Parent: root, Trace: trace, Name: spanLSQR, Start: ls, End: tr.now()})
	tr.record(span{ID: root, Trace: trace, Name: spanSolve, Start: rs, End: tr.now()})
	return res, err
}

// checkSolve compares the TLR solution x of virtual source vs with an
// inversion against the dense kernel, an independent reference, and
// requires the inversion to beat the adjoint (cross-correlation)
// estimate. The tolerance comes from acc through the estimator's bound
// εs on ‖x − x_dense‖/‖x_dense‖ after the LSQR solve: by the triangle
// inequality the NMSEs against the true reflectivity r then satisfy
// |√NMSE − √NMSE_dense| ≤ εs·‖x_dense‖/‖r‖.
func checkSolve(tlrProb, denseProb *mdd.Problem, vs int, x []complex64, nb int, acc float64) error {
	ref, err := denseProb.Invert(vs, lsqr.Options{MaxIters: lsqrIters})
	if err != nil {
		return fmt.Errorf("dense reference solve: %w", err)
	}
	pred, err := estimator.Predict(estimator.Config{
		M: denseProb.K.Rows(), N: denseProb.K.Cols(), NB: nb, Acc: acc, Iters: lsqrIters,
	})
	if err != nil {
		return err
	}
	tol := pred.SolveRelErrBound * cfloat.Nrm2(ref.X) / cfloat.Nrm2(denseProb.TrueReflectivity(vs))
	got := tlrProb.NMSEAgainstTruth(x, vs)
	want := denseProb.NMSEAgainstTruth(ref.X, vs)
	if d := math.Abs(math.Sqrt(got) - math.Sqrt(want)); !(d <= tol) {
		return fmt.Errorf("virtual source %d: TLR NMSE %.9g vs dense %.9g: root NMSEs differ by %.3g, bound for acc %g is %.3g",
			vs, got, want, d, acc, tol)
	}
	if adj := denseProb.NMSEAgainstTruth(denseProb.Adjoint(vs), vs); !(got < adj) {
		return fmt.Errorf("virtual source %d: inversion NMSE %.6g does not beat the adjoint's %.6g", vs, got, adj)
	}
	return nil
}

// checkIdentical reports the first virtual source whose solution differs
// from its reference in any bit.
func checkIdentical(got, want []*mdd.Solution) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d solutions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].VS != want[i].VS || len(got[i].X) != len(want[i].X) {
			return fmt.Errorf("solution %d is for virtual source %d, want %d", i, got[i].VS, want[i].VS)
		}
		for j := range got[i].X {
			if math.Float32bits(real(got[i].X[j])) != math.Float32bits(real(want[i].X[j])) ||
				math.Float32bits(imag(got[i].X[j])) != math.Float32bits(imag(want[i].X[j])) {
				return fmt.Errorf("virtual source %d: element %d is %v, in-memory solve gives %v",
					got[i].VS, j, got[i].X[j], want[i].X[j])
			}
		}
	}
	return nil
}

// solveOK validates one inversion's outcome and returns its NMSE.
func solveOK(rep *report, prob *mdd.Problem, vs int, res *lsqr.Result, err error) (float64, bool) {
	if err != nil {
		rep.failed++
		rep.fail("virtual source %d: %v", vs, err)
		return 0, false
	}
	if res.Iters != lsqrIters {
		rep.failed++
		rep.fail("virtual source %d: %d iterations, want %d", vs, res.Iters, lsqrIters)
		return 0, false
	}
	nmse := prob.NMSEAgainstTruth(res.X, vs)
	if !(nmse < 1) {
		rep.failed++
		rep.fail("virtual source %d: NMSE %g is not below 1", vs, nmse)
		return 0, false
	}
	return nmse, true
}

// vsStream returns the virtual sources 0..n-1 in seeded order, each once
// per pass, so that a run's mean NMSE depends little on the seed.
func vsStream(rng *rand.Rand, n int) func() int {
	var order []int
	return func() int {
		if len(order) == 0 {
			order = rng.Perm(n)
		}
		v := order[0]
		order = order[1:]
		return v
	}
}

// atReference returns the durations of the timed spans in ms at the
// reference speed, and their total in seconds.
func atReference(speed *speedProbe, spans [][2]time.Time) (msAt []float64, totalS float64) {
	msAt = make([]float64, len(spans))
	for i, s := range spans {
		msAt[i] = speed.refMs(s[0], s[1])
		totalS += msAt[i] / 1e3
	}
	return msAt, totalS
}

// perIter divides solve times by the LSQR iteration count.
func perIter(jobMs []float64) []float64 {
	out := make([]float64, len(jobMs))
	for i, v := range jobMs {
		out[i] = v / lsqrIters
	}
	return out
}

// runSolve is the solve workload: one caller, closed loop, inverting one
// seeded virtual source at a time against the in-memory TLR kernel. In a
// traced run every second solve goes through the timing wrappers.
func runSolve(cfg config) (*report, error) {
	rep := newReport()
	var speed speedProbe
	d, setup, err := repeatSetup(solverSetups, &speed, buildSolverData, func(*solverData) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	prob, err := mdd.NewProblem(d.ds, d.tlr)
	if err != nil {
		return nil, err
	}

	var ts *tracedSolver
	if cfg.trace {
		if ts, err = newTracedSolver(d.ds, d.tlr, newTracer()); err != nil {
			return nil, err
		}
	}
	nextVS := vsStream(rand.New(rand.NewSource(cfg.seed)), d.ds.Geom.NumReceivers())
	opts := lsqr.Options{MaxIters: lsqrIters}
	checkVS, checkX := -1, []complex64(nil)
	// timed and tracedTimed hold the start and end of every untraced and
	// traced solve; they are scaled to the reference speed at the end.
	var timed, tracedTimed [][2]time.Time
	var nmses []float64
	var tracedWall time.Duration
	runtime.GC() // collect the set-up's garbage before anything is timed
	deadline := time.Now().Add(cfg.measure)
	for i := 0; time.Now().Before(deadline); i++ {
		vs := nextVS()
		traced := ts != nil && i%2 == 1
		t := time.Now()
		var res *lsqr.Result
		if traced {
			res, err = ts.invert(vs, opts)
		} else {
			var sol *mdd.Solution
			if sol, err = prob.Invert(vs, opts); err == nil {
				res = sol.LSQR
			}
		}
		end := time.Now()
		speed.sample(1)
		rep.attempted++
		nmse, ok := solveOK(rep, prob, vs, res, err)
		if !ok {
			continue
		}
		nmses = append(nmses, nmse)
		if traced {
			tracedTimed = append(tracedTimed, [2]time.Time{t, end})
			tracedWall += end.Sub(t)
			continue
		}
		timed = append(timed, [2]time.Time{t, end})
		if checkVS < 0 {
			checkVS, checkX = vs, res.X
		}
	}
	rep.e2e["mem_mb"] = liveHeapMB()
	speed.sample(5)
	jobMs, total := atReference(&speed, timed)
	iterMs := perIter(jobMs)
	rep.e2e["iter_ms_p50"] = quantile(iterMs, 0.5)
	rep.e2e["iter_ms_p90"] = quantile(iterMs, 0.9)
	rep.e2e["job_ms_p50"] = quantile(jobMs, 0.5)
	rep.e2e["vs_per_s"] = float64(len(timed)) / total
	rep.e2e["nmse"] = mean(nmses)
	rep.layer["host.speed"] = speed.median()

	if checkVS < 0 {
		rep.fail("no solve completed")
	} else {
		dense, err := mdd.NewProblem(d.ds, d.dense)
		if err != nil {
			return nil, err
		}
		if err := checkSolve(prob, dense, checkVS, checkX, solverNB, solverAcc); err != nil {
			rep.fail("%v", err)
		}
	}
	if ts != nil {
		d.setupLayers(rep.layer)
		spans := ts.tr.snapshot()
		solveLayers(spans, workOf(d.tlr), tracedWall, rep.layer)
		tracedMs, _ := atReference(&speed, tracedTimed)
		rep.layer["trace.overhead_pct"] = 100 * (quantile(tracedMs, 0.5)/quantile(jobMs, 0.5) - 1)
		hostLayers(rep.layer)
		if err := ts.tr.write(traceFile(cfg, "solve")); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return rep, nil
}

// solveLayers derives the per-layer metrics of traced sequential solves.
// Each solve's wall time splits into the self times of its mdd, lsqr and
// mdc spans plus the union of the kernel spans under each operator call;
// what is left of the benchmark's own timing of the solves is reported
// as unattributed.
func solveLayers(spans []span, work productWork, measured time.Duration, layer map[string]float64) {
	self := selfTimes(spans)
	durs := byName(spans)
	nSolves := len(durs[spanSolve])
	nCalls := len(durs[spanApply]) + len(durs[spanAdjoint])
	var opWall, kernelBusy int64
	for _, s := range spans {
		switch s.Name {
		case spanApply, spanAdjoint:
			opWall += s.dur()
		case spanMVM, spanMVMAdj:
			kernelBusy += s.dur()
		}
	}
	mdcSelf := self[spanApply] + self[spanAdjoint]
	kernelWall := opWall - mdcSelf
	named := self[spanSolve] + self[spanLSQR] + mdcSelf + kernelWall
	layer["mdc.apply_ms_p50"] = quantile(durs[spanApply], 0.5) / 1e3
	layer["mdc.adjoint_ms_p50"] = quantile(durs[spanAdjoint], 0.5) / 1e3
	layer["mdc.self_ms_per_call"] = float64(mdcSelf) / 1e6 / float64(nCalls)
	layer["mdc.parallel_eff"] = float64(kernelBusy) / (float64(opWall) * float64(runtime.GOMAXPROCS(0)))
	layer["lsqr.self_ms_per_iter"] = float64(self[spanLSQR]) / 1e6 / float64(nSolves*lsqrIters)
	layer["mdd.self_ms_per_solve"] = float64(self[spanSolve]) / 1e6 / float64(nSolves)
	layer["trace.unattributed_pct"] = 100 * (1 - float64(named)/float64(measured))
	kernelLayers(durs, work, layer)
}

// kernelLayers derives the TLR product metrics from the kernel spans:
// per-call medians, and the rates of flops and computed bytes over the
// time spent inside the products.
func kernelLayers(durs map[string][]float64, work productWork, layer map[string]float64) {
	fwd, adj := durs[spanMVM], durs[spanMVMAdj]
	layer["tlr.mvm_us_p50"] = quantile(fwd, 0.5)
	layer["tlr.mvm_adj_us_p50"] = quantile(adj, 0.5)
	var busyUs float64
	for _, v := range append(append([]float64(nil), fwd...), adj...) {
		busyUs += v
	}
	calls := float64(len(fwd) + len(adj))
	layer["tlr.gflops"] = calls * work.flops / busyUs / 1e3
	layer["tlr.gbps"] = calls * work.bytes / busyUs / 1e3
}

// oocSetup is the set-up product of the line-ooc workload.
type oocSetup struct {
	data   *solverData
	store  *opstore.Store
	kernel *mdc.TLRKernel // the store-backed kernel
	write  time.Duration
}

// setupOOC builds the solver data, writes its TLR kernel to a page file
// at path and reopens it with half the compressed footprint as budget.
func setupOOC(path string) (*oocSetup, error) {
	d, err := buildSolverData()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if err := opstore.WriteFile(path, &tlrio.Kernel{Freqs: d.ds.Freqs, Mats: d.tlr.Mats}, nil); err != nil {
		return nil, fmt.Errorf("writing page file: %w", err)
	}
	write := time.Since(t)
	st, err := opstore.OpenFile(path, d.tlr.Bytes()/2)
	if err != nil {
		return nil, fmt.Errorf("opening page file: %w", err)
	}
	k := &mdc.TLRKernel{Mats: make([]*tlr.Matrix, st.NumMats())}
	for f := range k.Mats {
		if k.Mats[f], err = st.Matrix(f); err != nil {
			st.Close()
			return nil, err
		}
	}
	return &oocSetup{data: d, store: st, kernel: k, write: write}, nil
}

// runLineOOC is the line-ooc workload: the solve workload's kernel,
// written once to a paged tile store and reopened with half its
// compressed footprint as the cache budget (the mddserve default), so
// products fault tiles in from disk. Seeded batches of nproc virtual
// sources are inverted with mdd.Problem.InvertLine on nproc workers.
func runLineOOC(cfg config) (*report, error) {
	rep := newReport()
	var speed speedProbe
	path := filepath.Join(cfg.workdir, fmt.Sprintf("line-ooc-seed%d.tlrp", cfg.seed))
	defer os.Remove(path)
	o, setup, err := repeatSetup(solverSetups, &speed, func() (*oocSetup, error) { return setupOOC(path) },
		func(o *oocSetup) { o.store.Close() })
	if err != nil {
		return nil, err
	}
	defer o.store.Close()
	rep.e2e["setup_s"] = setup
	d, st := o.data, o.store
	prob, err := mdd.NewProblem(d.ds, o.kernel)
	if err != nil {
		return nil, err
	}

	workers := runtime.GOMAXPROCS(0)
	nextVS := vsStream(rand.New(rand.NewSource(cfg.seed)), d.ds.Geom.NumReceivers())
	nextBatch := func() []int {
		b := make([]int, workers)
		for i := range b {
			b[i] = nextVS()
		}
		return b
	}
	opts := lsqr.Options{MaxIters: lsqrIters}

	// The first two batches are also solved against the in-memory kernel
	// before it is released, as the bit-identity references.
	checked := [][]int{nextBatch(), nextBatch()}
	mem, err := mdd.NewProblem(d.ds, d.tlr)
	if err != nil {
		return nil, err
	}
	refs := make([][]*mdd.Solution, len(checked))
	for i, b := range checked {
		if refs[i], err = mem.InvertLine(b, opts, workers); err != nil {
			return nil, fmt.Errorf("in-memory reference solves: %w", err)
		}
	}
	if cfg.trace {
		d.setupLayers(rep.layer)
		rep.layer["opstore.write_s"] = o.write.Seconds()
	}
	work := workOf(d.tlr)
	// From here on the streamed kernel is the only operator: release the
	// dense and in-memory kernels so mem_mb shows the out-of-core
	// footprint. The problem keeps the survey's data and truth only.
	d.ds.K, d.dense, d.tlr, mem = nil, nil, nil, nil

	var tr *tracer
	var tk *timingKernel
	var tprob *mdd.Problem
	if cfg.trace {
		tr = newTracer()
		tk = newTimingKernel(o.kernel, tr)
		if tprob, err = mdd.NewProblem(d.ds, tk); err != nil {
			return nil, err
		}
	}
	before := st.Stats()
	// timed and tracedTimed hold the start and end of every untraced and
	// traced batch; they are scaled to the reference speed at the end.
	var timed, tracedTimed [][2]time.Time
	var nmses []float64
	var solved, timedVS, batches int
	runtime.GC() // collect the set-up's garbage before anything is timed
	deadline := time.Now().Add(cfg.measure)
	for i := 0; time.Now().Before(deadline); i++ {
		batches++
		batch := nextBatch()
		if i < len(checked) {
			batch = checked[i]
		}
		traced := tr != nil && i%2 == 1
		t := time.Now()
		var sols []*mdd.Solution
		if traced {
			// One batch is one trace: its kernel spans are children of
			// the batch span, whichever worker ran them.
			root := tr.newID()
			tk.setCaller(root, root)
			s := tr.now()
			sols, err = tprob.InvertLine(batch, opts, workers)
			tr.record(span{ID: root, Trace: root, Name: spanBatch, Start: s, End: tr.now()})
		} else {
			sols, err = prob.InvertLine(batch, opts, workers)
		}
		end := time.Now()
		speed.sample(2)
		rep.attempted += len(batch)
		if err != nil {
			rep.failed += len(batch)
			rep.fail("batch %v: %v", batch, err)
			continue
		}
		for _, sol := range sols {
			if nmse, ok := solveOK(rep, prob, sol.VS, sol.LSQR, nil); ok {
				solved++
				nmses = append(nmses, nmse)
			}
		}
		if i < len(checked) {
			if err := checkIdentical(sols, refs[i]); err != nil {
				rep.fail("out-of-core vs in-memory: %v", err)
			}
		}
		if traced {
			tracedTimed = append(tracedTimed, [2]time.Time{t, end})
			continue
		}
		timed = append(timed, [2]time.Time{t, end})
		timedVS += len(batch)
	}
	after := st.Stats()
	rep.e2e["mem_mb"] = liveHeapMB()
	runtime.KeepAlive(prob) // the survey and the tile cache count as live
	speed.sample(5)
	jobMs, total := atReference(&speed, timed)
	iterMs := perIter(jobMs)
	rep.e2e["iter_ms_p50"] = quantile(iterMs, 0.5)
	rep.e2e["iter_ms_p90"] = quantile(iterMs, 0.9)
	rep.e2e["job_ms_p50"] = quantile(jobMs, 0.5)
	rep.e2e["vs_per_s"] = float64(timedVS) / total
	rep.e2e["nmse"] = mean(nmses)
	rep.layer["host.speed"] = speed.median()
	if batches < len(checked) {
		rep.fail("only %d batches ran; the first %d are checked against in-memory solves", batches, len(checked))
	}

	if tr != nil {
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		rep.layer["opstore.hit_ratio"] = float64(hits) / float64(hits+misses)
		rep.layer["opstore.misses_per_vs"] = float64(misses) / float64(solved)
		rep.layer["opstore.resident_mb"] = float64(after.ResidentBytes) / 1e6
		kernelLayers(byName(tr.snapshot()), work, rep.layer)
		tracedMs, _ := atReference(&speed, tracedTimed)
		rep.layer["trace.overhead_pct"] = 100 * (quantile(tracedMs, 0.5)/quantile(jobMs, 0.5) - 1)
		hostLayers(rep.layer)
		if err := tr.write(traceFile(cfg, "line-ooc")); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return rep, nil
}
