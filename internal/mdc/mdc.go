// Package mdc implements the Multi-Dimensional Convolution operator of
// Eqn. (2): y = Fᴴ K F x, where K applies one matrix-vector product per
// frequency in the seismic band and F/Fᴴ move between time and frequency.
// The kernel K is pluggable: dense frequency matrices or TLR-compressed
// ones (the paper's contribution), so the same MDD driver runs against
// both and quantifies the compression error end to end.
package mdc

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/dense"
	"repro/internal/fft"
	"repro/internal/obs"
	"repro/internal/tlr"
)

// MDC operator metrics: forward/adjoint timers for the frequency-domain
// operator of MDD and stage timers for the time-domain Eqn. (2) pipeline
// (S, K, Sᴴ).
var (
	obsFreqApply   = obs.NewTimer("mdc.freq.apply")
	obsFreqAdjoint = obs.NewTimer("mdc.freq.adjoint")
	obsTimeApply   = obs.NewTimer("mdc.time.apply")
	obsTimeAdjoint = obs.NewTimer("mdc.time.adjoint")
	obsCompressK   = obs.NewTimer("mdc.compress_kernel")
	obsFreqCount   = obs.NewCounter("mdc.freq.mvms")
)

// Kernel is the per-frequency matrix stack K of Eqn. (2): NumFreqs
// matrices, each Rows×Cols (sources × seafloor points).
type Kernel interface {
	NumFreqs() int
	Rows() int
	Cols() int
	// Apply computes y = K_f x for frequency index f.
	Apply(f int, x, y []complex64)
	// ApplyAdjoint computes y = K_fᴴ x.
	ApplyAdjoint(f int, x, y []complex64)
	// Bytes returns the kernel storage footprint.
	Bytes() int64
}

// NormalKernel is the kernel extension for normal-equation solvers: a
// kernel that applies K_fᴴ K_f per frequency. The TLR kernel implements
// it as its forward product followed by its adjoint one.
type NormalKernel interface {
	Kernel
	// ApplyNormal computes y = K_fᴴ K_f x (len(x) = len(y) = Cols).
	ApplyNormal(f int, x, y []complex64)
}

// CheckedKernel is the fallible kernel surface the fault-tolerant
// execution stack is built on: the same per-frequency products, but a
// bad frequency index, a short vector, or a shard-level fault comes back
// as an error the scheduler can retry or fail over, never as a panic
// that takes the whole fan-out down. Both built-in kernels implement it;
// fault-injection wrappers (internal/fault) preserve it.
type CheckedKernel interface {
	Kernel
	// ApplyChecked computes y = K_f x, reporting invalid inputs or
	// execution faults as errors.
	ApplyChecked(f int, x, y []complex64) error
	// ApplyAdjointChecked computes y = K_fᴴ x likewise.
	ApplyAdjointChecked(f int, x, y []complex64) error
}

// checkKernelArgs validates a per-frequency product's arguments against
// the kernel's shape.
func checkKernelArgs(k Kernel, f int, x, y []complex64, adjoint bool) error {
	if f < 0 || f >= k.NumFreqs() {
		return fmt.Errorf("mdc: frequency %d outside [0,%d)", f, k.NumFreqs())
	}
	nin, nout := k.Cols(), k.Rows()
	if adjoint {
		nin, nout = nout, nin
	}
	if len(x) < nin {
		return fmt.Errorf("mdc: frequency %d input has %d elements, want %d", f, len(x), nin)
	}
	if len(y) < nout {
		return fmt.Errorf("mdc: frequency %d output has %d elements, want %d", f, len(y), nout)
	}
	return nil
}

// DenseKernel wraps a stack of dense frequency matrices.
type DenseKernel struct {
	Mats []*dense.Matrix
}

// NewDenseKernel validates that all matrices share one shape.
func NewDenseKernel(mats []*dense.Matrix) (*DenseKernel, error) {
	if len(mats) == 0 {
		return nil, fmt.Errorf("mdc: empty kernel")
	}
	r, c := mats[0].Rows, mats[0].Cols
	for i, m := range mats {
		if m.Rows != r || m.Cols != c {
			return nil, fmt.Errorf("mdc: matrix %d is %dx%d, want %dx%d", i, m.Rows, m.Cols, r, c)
		}
	}
	return &DenseKernel{Mats: mats}, nil
}

// NumFreqs implements Kernel.
func (k *DenseKernel) NumFreqs() int { return len(k.Mats) }

// Rows implements Kernel.
func (k *DenseKernel) Rows() int { return k.Mats[0].Rows }

// Cols implements Kernel.
func (k *DenseKernel) Cols() int { return k.Mats[0].Cols }

// Apply implements Kernel. Registered hot path: one MVM per in-band
// frequency per operator application.
//
//lint:hotpath
func (k *DenseKernel) Apply(f int, x, y []complex64) { k.Mats[f].MulVec(x, y) }

// ApplyAdjoint implements Kernel.
func (k *DenseKernel) ApplyAdjoint(f int, x, y []complex64) { k.Mats[f].MulVecConjTrans(x, y) }

// ApplyChecked implements CheckedKernel.
func (k *DenseKernel) ApplyChecked(f int, x, y []complex64) error {
	if err := checkKernelArgs(k, f, x, y, false); err != nil {
		return err
	}
	k.Mats[f].MulVec(x, y)
	return nil
}

// ApplyAdjointChecked implements CheckedKernel.
func (k *DenseKernel) ApplyAdjointChecked(f int, x, y []complex64) error {
	if err := checkKernelArgs(k, f, x, y, true); err != nil {
		return err
	}
	k.Mats[f].MulVecConjTrans(x, y)
	return nil
}

// Bytes implements Kernel.
func (k *DenseKernel) Bytes() int64 {
	var b int64
	for _, m := range k.Mats {
		b += m.Bytes()
	}
	return b
}

// TLRKernel wraps a stack of TLR-compressed frequency matrices.
type TLRKernel struct {
	Mats []*tlr.Matrix
}

// CompressKernel TLR-compresses each frequency matrix of a dense kernel
// with the given options — the paper's pre-processing step.
func CompressKernel(k *DenseKernel, opts tlr.Options) (*TLRKernel, error) {
	defer obsCompressK.Start().End()
	out := make([]*tlr.Matrix, len(k.Mats))
	for i, m := range k.Mats {
		tm, err := tlr.Compress(m, opts)
		if err != nil {
			return nil, fmt.Errorf("mdc: compressing frequency %d: %w", i, err)
		}
		out[i] = tm
	}
	return &TLRKernel{Mats: out}, nil
}

// NumFreqs implements Kernel.
func (k *TLRKernel) NumFreqs() int { return len(k.Mats) }

// Rows implements Kernel.
func (k *TLRKernel) Rows() int { return k.Mats[0].M }

// Cols implements Kernel.
func (k *TLRKernel) Cols() int { return k.Mats[0].N }

// Apply implements Kernel. Registered hot path: one TLR-MVM per in-band
// frequency per operator application.
//
//lint:hotpath
func (k *TLRKernel) Apply(f int, x, y []complex64) { k.Mats[f].MulVec(x, y) }

// ApplyAdjoint implements Kernel.
func (k *TLRKernel) ApplyAdjoint(f int, x, y []complex64) { k.Mats[f].MulVecConjTrans(x, y) }

// ApplyNormal implements NormalKernel: y = K_fᴴ (K_f x), the forward
// product into a temporary followed by the adjoint.
func (k *TLRKernel) ApplyNormal(f int, x, y []complex64) {
	m := k.Mats[f]
	q := make([]complex64, m.M)
	m.MulVec(x, q)
	m.MulVecConjTrans(q, y)
}

// ApplyChecked implements CheckedKernel: the product FreqOperator runs
// on every solve. Registered hot path, like Apply.
//
//lint:hotpath
func (k *TLRKernel) ApplyChecked(f int, x, y []complex64) error {
	//lint:alloc-ok a pointer in an interface does not allocate, and only an invalid argument reaches the error formatting
	if err := checkKernelArgs(k, f, x, y, false); err != nil {
		return err
	}
	k.Mats[f].MulVec(x, y)
	return nil
}

// ApplyAdjointChecked implements CheckedKernel.
func (k *TLRKernel) ApplyAdjointChecked(f int, x, y []complex64) error {
	if err := checkKernelArgs(k, f, x, y, true); err != nil {
		return err
	}
	k.Mats[f].MulVecConjTrans(x, y)
	return nil
}

// Bytes implements Kernel.
func (k *TLRKernel) Bytes() int64 {
	var b int64
	for _, m := range k.Mats {
		b += m.CompressedBytes()
	}
	return b
}

// FreqOperator is the frequency-domain MDC operator used by MDD: the
// unknown and data live on the in-band frequency grid (frequency-major
// layout: x[f·Cols+v], y[f·Rows+s]) and the operator applies one scaled
// kernel MVM per frequency, in parallel. It satisfies lsqr.Operator.
type FreqOperator struct {
	K Kernel
	// Scale multiplies every MVM; the MDC surface-integration weight dA.
	Scale float32
	// Workers bounds the per-frequency parallelism (0 = GOMAXPROCS).
	Workers int
}

// Rows implements lsqr.Operator: total data length nf·nsrc.
func (op *FreqOperator) Rows() int { return op.K.NumFreqs() * op.K.Rows() }

// Cols implements lsqr.Operator: total model length nf·nrec.
func (op *FreqOperator) Cols() int { return op.K.NumFreqs() * op.K.Cols() }

// Apply implements lsqr.Operator. It panics on invalid vectors; callers
// that need error propagation (the fault-tolerant stack) use
// ApplyChecked instead.
func (op *FreqOperator) Apply(x, y []complex64) {
	if err := op.run(x, y, false); err != nil {
		panic(err)
	}
}

// ApplyAdjoint implements lsqr.Operator. It panics on invalid vectors;
// the fallible variant is ApplyAdjointChecked.
func (op *FreqOperator) ApplyAdjoint(x, y []complex64) {
	if err := op.run(x, y, true); err != nil {
		panic(err)
	}
}

// ApplyChecked computes y = K x, reporting short vectors and
// per-frequency kernel faults as errors instead of panicking — the
// entry point the fault-tolerant execution stack calls.
func (op *FreqOperator) ApplyChecked(x, y []complex64) error {
	return op.run(x, y, false)
}

// ApplyAdjointChecked computes y = Kᴴ x with error propagation.
func (op *FreqOperator) ApplyAdjointChecked(x, y []complex64) error {
	return op.run(x, y, true)
}

func (op *FreqOperator) run(x, y []complex64, adjoint bool) error {
	if adjoint {
		defer obsFreqAdjoint.Start().End()
	} else {
		defer obsFreqApply.Start().End()
	}
	nf := op.K.NumFreqs()
	if nf == 0 {
		return nil // zero-dimensional operator: nothing to apply
	}
	obsFreqCount.Add(int64(nf))
	nin, nout := op.K.Cols(), op.K.Rows()
	if adjoint {
		nin, nout = nout, nin
	}
	if len(x) < nf*nin {
		return fmt.Errorf("mdc: FreqOperator input has %d elements, want %d", len(x), nf*nin)
	}
	if len(y) < nf*nout {
		return fmt.Errorf("mdc: FreqOperator output has %d elements, want %d", len(y), nf*nout)
	}
	scale := complex(op.Scale, 0)
	if op.Scale == 0 {
		scale = 1
	}
	workers := op.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ck, checked := op.K.(CheckedKernel)
	errs := make([]error, nf)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for f := 0; f < nf; f++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(f int) {
			defer wg.Done()
			defer func() { <-sem }()
			xf := x[f*nin : (f+1)*nin]
			yf := y[f*nout : (f+1)*nout]
			switch {
			case checked && adjoint:
				errs[f] = ck.ApplyAdjointChecked(f, xf, yf)
			case checked:
				errs[f] = ck.ApplyChecked(f, xf, yf)
			case adjoint:
				op.K.ApplyAdjoint(f, xf, yf)
			default:
				op.K.Apply(f, xf, yf)
			}
			if errs[f] == nil && scale != 1 {
				for i := range yf {
					yf[i] *= scale
				}
			}
		}(f)
	}
	wg.Wait()
	for f, err := range errs {
		if err != nil {
			return fmt.Errorf("mdc: frequency %d: %w", f, err)
		}
	}
	return nil
}

// TimeOperator is the literal Eqn. (2) composition A = Sᴴ K S over complex
// time-domain traces, where S is the unitary band-sampling DFT (forward
// unitary FFT followed by in-band bin selection) and Sᴴ its exact adjoint
// (zero-padding followed by the unitary inverse FFT). Using the unitary
// pair keeps ⟨Ax, y⟩ = ⟨x, Aᴴy⟩ exact, which LSQR requires.
//
// Layout: x holds Cols() channels of Nt complex samples, channel-major
// (x[c·Nt+t]); y holds Rows() channels likewise.
type TimeOperator struct {
	K Kernel
	// Nt is the time-series length; FreqIdx maps each kernel frequency to
	// its bin on the length-Nt DFT grid.
	Nt      int
	FreqIdx []int
	Scale   float32
	Workers int

	planOnce sync.Once
	plan     *fft.Plan
}

// Rows implements lsqr.Operator.
func (op *TimeOperator) Rows() int { return op.K.Rows() * op.Nt }

// Cols implements lsqr.Operator.
func (op *TimeOperator) Cols() int { return op.K.Cols() * op.Nt }

func (op *TimeOperator) getPlan() *fft.Plan {
	op.planOnce.Do(func() { op.plan = fft.NewPlan(op.Nt) })
	return op.plan
}

// Apply implements lsqr.Operator. Its vector space (channels × Nt) does
// not match the oracle matrix, and it is covered by this package's
// round-trip and adjoint tests.
//
//lint:oracle-exempt time-domain wrapper over the registered FreqOperator
func (op *TimeOperator) Apply(x, y []complex64) { op.run(x, y, false) }

// ApplyAdjoint implements lsqr.Operator. Its vector space (channels ×
// Nt) does not match the oracle matrix, and it is covered by this
// package's round-trip and adjoint tests.
//
//lint:oracle-exempt time-domain wrapper over the registered FreqOperator
func (op *TimeOperator) ApplyAdjoint(x, y []complex64) { op.run(x, y, true) }

// AnalyzeTime applies the S stage standalone: channel-major time traces
// in x (nchan × Nt) are transformed to frequency-major in-band panels in
// out (nf × nchan) with the unitary forward scaling.
//
// Its unitarity is checked by this package's round-trip tests.
//
//lint:oracle-exempt DFT sampling stage, not an MVM path
func (op *TimeOperator) AnalyzeTime(x, out []complex64, nchan int) {
	if len(x) < nchan*op.Nt || len(out) < len(op.FreqIdx)*nchan {
		panic("mdc: AnalyzeTime buffer too short")
	}
	plan := op.getPlan()
	root := 1 / math.Sqrt(float64(op.Nt))
	buf := make([]complex128, op.Nt)
	for c := 0; c < nchan; c++ {
		for t := 0; t < op.Nt; t++ {
			buf[t] = complex128(x[c*op.Nt+t])
		}
		plan.Forward(buf)
		for f, bin := range op.FreqIdx {
			v := buf[bin]
			out[f*nchan+c] = complex64(complex(real(v)*root, imag(v)*root))
		}
	}
}

// SynthesizeTime applies the Sᴴ stage standalone: frequency-major in-band
// panels in x (nf × nchan) become channel-major time traces in out
// (nchan × Nt) with the unitary inverse scaling.
//
// Its unitarity is checked by this package's round-trip tests.
//
//lint:oracle-exempt DFT sampling stage, not an MVM path
func (op *TimeOperator) SynthesizeTime(x, out []complex64, nchan int) {
	if len(x) < len(op.FreqIdx)*nchan || len(out) < nchan*op.Nt {
		panic("mdc: SynthesizeTime buffer too short")
	}
	plan := op.getPlan()
	rootInv := math.Sqrt(float64(op.Nt))
	buf := make([]complex128, op.Nt)
	for c := 0; c < nchan; c++ {
		for t := range buf {
			buf[t] = 0
		}
		for f, bin := range op.FreqIdx {
			buf[bin] = complex128(x[f*nchan+c])
		}
		plan.Inverse(buf)
		for t := 0; t < op.Nt; t++ {
			v := buf[t]
			out[c*op.Nt+t] = complex64(complex(real(v)*rootInv, imag(v)*rootInv))
		}
	}
}

func (op *TimeOperator) run(x, y []complex64, adjoint bool) {
	if adjoint {
		defer obsTimeAdjoint.Start().End()
	} else {
		defer obsTimeApply.Start().End()
	}
	if len(op.FreqIdx) != op.K.NumFreqs() {
		panic("mdc: TimeOperator FreqIdx length mismatch")
	}
	nf := op.K.NumFreqs()
	ncin, ncout := op.K.Cols(), op.K.Rows()
	if adjoint {
		ncin, ncout = ncout, ncin
	}
	if len(x) < ncin*op.Nt || len(y) < ncout*op.Nt {
		panic("mdc: TimeOperator vector too short")
	}
	plan := op.getPlan()
	root := 1 / math.Sqrt(float64(op.Nt))
	// S: per input channel, unitary forward FFT, keep in-band bins
	xf := make([]complex64, nf*ncin) // frequency-major panels
	buf := make([]complex128, op.Nt)
	for c := 0; c < ncin; c++ {
		for t := 0; t < op.Nt; t++ {
			buf[t] = complex128(x[c*op.Nt+t])
		}
		plan.Forward(buf)
		for f, bin := range op.FreqIdx {
			v := buf[bin]
			xf[f*ncin+c] = complex64(complex(real(v)*root, imag(v)*root))
		}
	}
	// K (or Kᴴ) per frequency
	yf := make([]complex64, nf*ncout)
	scale := complex(op.Scale, 0)
	if op.Scale == 0 {
		scale = 1
	}
	workers := op.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for f := 0; f < nf; f++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(f int) {
			defer wg.Done()
			defer func() { <-sem }()
			in := xf[f*ncin : (f+1)*ncin]
			out := yf[f*ncout : (f+1)*ncout]
			if adjoint {
				op.K.ApplyAdjoint(f, in, out)
			} else {
				op.K.Apply(f, in, out)
			}
			if scale != 1 {
				for i := range out {
					out[i] *= scale
				}
			}
		}(f)
	}
	wg.Wait()
	// Sᴴ: zero-pad the band back onto the DFT grid, unitary inverse FFT
	rootInv := math.Sqrt(float64(op.Nt))
	for c := 0; c < ncout; c++ {
		for t := range buf {
			buf[t] = 0
		}
		for f, bin := range op.FreqIdx {
			buf[bin] = complex128(yf[f*ncout+c])
		}
		plan.Inverse(buf)
		for t := 0; t < op.Nt; t++ {
			v := buf[t]
			y[c*op.Nt+t] = complex64(complex(real(v)*rootInv, imag(v)*rootInv))
		}
	}
}
