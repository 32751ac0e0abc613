// Command perfbench is the repository benchmark. It runs one workload for
// a fixed time, checks the outputs, and prints one JSON result line:
//
//	perfbench -workload solve -seed 1 -seconds 30 -trace 0
//
// The workloads are solve (sequential single-virtual-source MDD
// inversions against the in-memory TLR kernel), line-ooc (parallel line
// inversions against the same kernel streamed from a paged tile store at
// half its footprint) and serve-open (an in-process mddserve server under
// seeded open-loop traffic at three fixed rates). With -trace 0 the line
// carries the end-to-end metrics; with -trace 1 it carries the per-layer
// metrics, taken through the timing wrappers in trace.go. README.md maps
// each layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what a workload receives from the command line.
type config struct {
	seed    int64
	measure time.Duration
	trace   bool
	// workdir holds the benchmark's scratch files (page files, traces).
	workdir string
}

// report is a workload's outcome: counts, check failures, and every
// metric it measured, keyed by the names in endToEnd and perLayer.
type report struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a correctness problem; any problem makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order; every
// workload reports every one of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"iter_ms_p50", "ms"},
	{"iter_ms_p90", "ms"},
	{"job_ms_p50", "ms"},
	{"vs_per_s", "1/s"},
	{"nmse", "1"},
	{"mem_mb", "MB"},
}

// perLayer lists the traced-run metrics in BENCHMARK.json order. A layer
// that a workload does not exercise reports 0 there.
var perLayer = []struct{ name, unit string }{
	{"seismic.generate_s", "s"},
	{"sfc.reorder_s", "s"},
	{"tlr.compress_s", "s"},
	{"opstore.write_s", "s"},
	{"tlr.compression_ratio", "x"},
	{"tlr.mean_rank", "count"},
	{"tlr.mvm_us_p50", "us"},
	{"tlr.mvm_adj_us_p50", "us"},
	{"tlr.flops_per_iter", "flop"},
	{"tlr.gflops", "GFLOP/s"},
	{"tlr.gbps", "GB/s"},
	{"tlr.flop_per_byte", "flop/B"},
	{"mdc.apply_ms_p50", "ms"},
	{"mdc.adjoint_ms_p50", "ms"},
	{"mdc.self_ms_per_call", "ms"},
	{"mdc.parallel_eff", "1"},
	{"lsqr.self_ms_per_iter", "ms"},
	{"mdd.self_ms_per_solve", "ms"},
	{"opstore.hit_ratio", "1"},
	{"opstore.misses_per_vs", "count"},
	{"opstore.resident_mb", "MB"},
	{"mddserve.submit_ms_p50", "ms"},
	{"mddserve.queue_ms_p50", "ms"},
	{"mddserve.queue_ms_p90", "ms"},
	{"mddserve.start_ms.hit", "ms"},
	{"mddserve.start_ms.miss", "ms"},
	{"mddserve.iter_ms_p50", "ms"},
	{"mddserve.finish_ms_p50", "ms"},
	{"mddserve.cache_hit_ratio", "1"},
	{"mddserve.queue_depth_max", "count"},
	{"mddserve.rejects", "count"},
	{"mddserve.generator_lag_ms", "ms"},
	{"mddserve.job_ms_p50.low", "ms"},
	{"mddserve.job_ms_p90.low", "ms"},
	{"mddserve.job_ms_p50.high", "ms"},
	{"mddserve.job_ms_p90.high", "ms"},
	{"mddserve.max_ok_rate", "1/s"},
	{"batch.steals_per_job", "count"},
	{"host.triad_gbps", "GB/s"},
	{"host.fma_gflops", "GFLOP/s"},
	{"host.llc_mb", "MB"},
	{"host.triad_array_mb", "MB"},
	{"host.speed", "1"},
	{"trace.unattributed_pct", "%"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(config) (*report, error){
	"solve":      runSolve,
	"line-ooc":   runLineOOC,
	"serve-open": runServeOpen,
}

func main() {
	name := flag.String("workload", "", "workload to run: solve, line-ooc or serve-open")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 30, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch files and traces")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload solve|line-ooc|serve-open -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *trace == 1, workdir: *workdir}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := rep.result(cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	fmt.Fprintf(os.Stderr, "host speed: median %.3f of the reference; end-to-end times are scaled by the speed around each sample\n", rep.layer["host.speed"])
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result selects the metric set for the run mode. Every end-to-end metric
// must have been measured; per-layer metrics default to 0 for layers the
// workload does not exercise.
func (r *report) result(traced bool) (*result, error) {
	out := &result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if traced {
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{Value: finite(r.layer[m.name]), Unit: m.unit}
		}
		return out, nil
	}
	for _, m := range endToEnd {
		v, ok := r.e2e[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured (%v)", m.name, v)
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out, nil
}

// finite maps NaN and infinities, which JSON cannot carry, to 0: a
// per-layer metric with no samples on this workload.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// repeatSetup sets up n times, releasing each result before the next
// set-up starts, and returns the last result with the median set-up time
// in seconds at the reference speed. It probes the host's speed before
// each set-up and after the last.
func repeatSetup[T any](n int, speed *speedProbe, setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var spans [][2]time.Time
	for i := 0; i < n; i++ {
		if i > 0 {
			release(last)
		}
		speed.sample(3)
		t := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		last = v
		spans = append(spans, [2]time.Time{t, time.Now()})
	}
	speed.sample(3)
	secs := make([]float64, len(spans))
	for i, s := range spans {
		secs[i] = speed.refMs(s[0], s[1]) / 1e3
	}
	return last, quantile(secs, 0.5), nil
}

// liveHeapMB forces a collection and returns the live heap in MB (1e6 B).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
