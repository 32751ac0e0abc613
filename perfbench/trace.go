package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mdc"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started. Spans of one solve share a Trace id; Parent is the span
// that made the call (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory; write dumps them at the end of the
// run so that recording costs one clock read and an append.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64   { return int64(time.Since(t.t0)) }
func (t *tracer) newID() int64 { return t.next.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedKernel is the interface set of *mdc.TLRKernel that callers
// type-assert: mdc.FreqOperator takes the CheckedKernel products and the
// NormalKernel fused pass when the kernel offers them.
type tracedKernel interface {
	mdc.CheckedKernel
	mdc.NormalKernel
}

// timingKernel records one span per per-frequency product and forwards
// every method to the wrapped kernel, so the operator above it takes the
// same code path as with the bare kernel. The parent and trace of the
// spans are whatever the caller set last: the operator wrapper sets them
// per call in sequential solves, and a line inversion sets them once.
type timingKernel struct {
	k      tracedKernel
	tr     *tracer
	parent atomic.Int64
	trace  atomic.Int64
}

func newTimingKernel(k tracedKernel, tr *tracer) *timingKernel {
	return &timingKernel{k: k, tr: tr}
}

// setCaller makes later spans children of span parent in trace id.
func (t *timingKernel) setCaller(trace, parent int64) {
	t.trace.Store(trace)
	t.parent.Store(parent)
}

func (t *timingKernel) record(name string, start int64) {
	t.tr.record(span{
		ID: t.tr.newID(), Parent: t.parent.Load(), Trace: t.trace.Load(),
		Name: name, Start: start, End: t.tr.now(),
	})
}

// Span names of the per-frequency TLR products.
const (
	spanMVM       = "tlr.mvm"
	spanMVMAdj    = "tlr.mvm_adj"
	spanMVMNormal = "tlr.mvm_normal"
)

func (t *timingKernel) NumFreqs() int { return t.k.NumFreqs() }
func (t *timingKernel) Rows() int     { return t.k.Rows() }
func (t *timingKernel) Cols() int     { return t.k.Cols() }
func (t *timingKernel) Bytes() int64  { return t.k.Bytes() }

func (t *timingKernel) Apply(f int, x, y []complex64) {
	s := t.tr.now()
	t.k.Apply(f, x, y)
	t.record(spanMVM, s)
}

func (t *timingKernel) ApplyAdjoint(f int, x, y []complex64) {
	s := t.tr.now()
	t.k.ApplyAdjoint(f, x, y)
	t.record(spanMVMAdj, s)
}

func (t *timingKernel) ApplyNormal(f int, x, y []complex64) {
	s := t.tr.now()
	t.k.ApplyNormal(f, x, y)
	t.record(spanMVMNormal, s)
}

func (t *timingKernel) ApplyChecked(f int, x, y []complex64) error {
	s := t.tr.now()
	err := t.k.ApplyChecked(f, x, y)
	t.record(spanMVM, s)
	return err
}

func (t *timingKernel) ApplyAdjointChecked(f int, x, y []complex64) error {
	s := t.tr.now()
	err := t.k.ApplyAdjointChecked(f, x, y)
	t.record(spanMVMAdj, s)
	return err
}

// Span names of the layers above the kernel.
const (
	spanSolve   = "mdd.invert"
	spanLSQR    = "lsqr.solve"
	spanApply   = "mdc.apply"
	spanAdjoint = "mdc.adjoint"
	spanBatch   = "mdd.invert_line"
)

// timingOperator wraps the MDC frequency operator as an lsqr.Operator and
// records one span per operator call, as a child of the solve's LSQR span.
type timingOperator struct {
	op     *mdc.FreqOperator
	k      *timingKernel
	tr     *tracer
	trace  int64
	parent int64
}

func (o *timingOperator) Rows() int { return o.op.Rows() }
func (o *timingOperator) Cols() int { return o.op.Cols() }

func (o *timingOperator) Apply(x, y []complex64) {
	o.call(spanApply, func() { o.op.Apply(x, y) })
}

func (o *timingOperator) ApplyAdjoint(x, y []complex64) {
	o.call(spanAdjoint, func() { o.op.ApplyAdjoint(x, y) })
}

func (o *timingOperator) call(name string, f func()) {
	id := o.tr.newID()
	o.k.setCaller(o.trace, id)
	s := o.tr.now()
	f()
	o.tr.record(span{ID: id, Parent: o.parent, Trace: o.trace, Name: name, Start: s, End: o.tr.now()})
}

// union returns the total length covered by the intervals of spans.
func union(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total int64
	cs, ce := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > ce {
			total += ce - cs
			cs, ce = s.Start, s.End
		} else if s.End > ce {
			ce = s.End
		}
	}
	return total + ce - cs
}

// selfTimes returns, per span name, the summed self time of its spans: a
// span's duration minus the part of it covered by its children. Children
// that run in parallel are counted once, by the union of their intervals.
func selfTimes(spans []span) map[string]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] += s.dur() - union(children[s.ID])
	}
	return self
}

// byName groups span durations in microseconds by span name.
func byName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e3)
	}
	return out
}

func traceFile(cfg config, workload string) string {
	return fmt.Sprintf("%s/trace-%s-seed%d.ndjson", cfg.workdir, workload, cfg.seed)
}
