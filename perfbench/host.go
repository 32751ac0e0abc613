package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxTriadArrayBytes caps one triad array. A bandwidth figure needs each
// array at four times the last-level cache or more; on hosts where that
// exceeds the cap (300 MiB of L3 asks for 1.2 GiB arrays), the probe runs
// at the cap and reads cache bandwidth. The kernel's own intensity is
// reported as tlr.flop_per_byte instead of a share of that bandwidth.
const maxTriadArrayBytes = 64 << 20

// hostLayers runs the host calibration probes.
func hostLayers(layer map[string]float64) {
	llc := lastLevelCache()
	want := 4 * llc
	size := min(want, maxTriadArrayBytes)
	if size <= 0 {
		size = maxTriadArrayBytes
	}
	triad := triadGBps(size / 8)
	layer["host.llc_mb"] = float64(llc) / (1 << 20)
	layer["host.triad_array_mb"] = float64(size) / (1 << 20)
	layer["host.triad_gbps"] = triad
	layer["host.fma_gflops"] = fmaGFlops()
}

// lastLevelCache returns the size in bytes of the highest-level CPU cache
// sysfs reports for CPU 0, or 0 when it reports none.
func lastLevelCache() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var level, size int64
	for _, d := range dirs {
		l, err1 := readInt(filepath.Join(d, "level"))
		s, err2 := readSize(filepath.Join(d, "size"))
		if err1 == nil && err2 == nil && l >= level {
			level, size = l, s
		}
	}
	return size
}

func readInt(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
}

// readSize parses a sysfs cache size such as "300M" or "4096K".
func readSize(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	s, mult := strings.TrimSpace(string(b)), int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		s, mult = strings.TrimSuffix(s, "K"), 1<<10
	case strings.HasSuffix(s, "M"):
		s, mult = strings.TrimSuffix(s, "M"), 1<<20
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n * mult, err
}

// triadGBps runs the STREAM triad a[i] = b[i] + s·c[i] over float64
// arrays of n elements on GOMAXPROCS goroutines and returns the best of
// five passes, counting 24 bytes per element.
func triadGBps(n int64) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	p := runtime.GOMAXPROCS(0)
	best := time.Duration(1 << 62)
	for pass := 0; pass < 5; pass++ {
		t := time.Now()
		parallel(p, func(w int) {
			lo, hi := int64(w)*n/int64(p), int64(w+1)*n/int64(p)
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + 3*cc[i]
			}
		})
		best = min(best, time.Since(t))
	}
	return 24 * float64(n) / best.Seconds() / 1e9
}

// fmaSink keeps the multiply-add results live.
var fmaSink float32

// fmaRate runs steps fp32 multiply-adds on each of eight independent
// chains in each of GOMAXPROCS goroutines of plain Go code and returns the
// rate per goroutine in GFLOP/s, counting 2 flops per multiply-add.
func fmaRate(steps int) float64 {
	p := runtime.GOMAXPROCS(0)
	sums := make([]float32, p)
	t := time.Now()
	parallel(p, func(w int) {
		m, c := float32(0.999999), float32(1e-7)
		var x0, x1, x2, x3, x4, x5, x6, x7 float32 = 1, 2, 3, 4, 5, 6, 7, 8
		for i := 0; i < steps; i++ {
			x0, x1, x2, x3 = x0*m+c, x1*m+c, x2*m+c, x3*m+c
			x4, x5, x6, x7 = x4*m+c, x5*m+c, x6*m+c, x7*m+c
		}
		sums[w] = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
	})
	el := time.Since(t)
	for _, s := range sums {
		fmaSink += s
	}
	return 2 * 8 * float64(steps) / el.Seconds() / 1e9
}

// fmaGFlops is the host's fp32 multiply-add rate over all GOMAXPROCS
// goroutines, the best of three passes.
func fmaGFlops() float64 {
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		best = max(best, fmaRate(1<<24))
	}
	return best * float64(runtime.GOMAXPROCS(0))
}

// speedRefGFlops is the reference speed of the end-to-end timings: the
// per-goroutine fp32 multiply-add rate of a 2-CPU host at which the
// repository's workloads were tuned.
const speedRefGFlops = 8

// speedNeighbours is how many probes, the nearest in time, give the speed
// at which one timed sample ran.
const speedNeighbours = 4

// speedProbe samples the host's speed through a run. The hosts this
// benchmark runs on share their cores, and their speed changes by up to
// 2× within seconds as other tenants come and go; over 53 five-second
// windows the operator's wall time varied by 76% (IQR over median) while
// its ratio to an adjacent multiply-add probe varied by 9%. End-to-end
// timings are therefore reported at the reference speed: each timed
// sample's wall time × (probe rate ÷ speedRefGFlops), with the median rate
// of the probes taken nearest to it.
type speedProbe struct{ probes []probe }

// probe is one speed reading and the time it was taken. A speedProbe's
// probes are in time order: each is appended when it ends.
type probe struct {
	at   time.Time
	rate float64
}

// sample takes n probes of about 2 ms each at the reference speed.
func (p *speedProbe) sample(n int) {
	for i := 0; i < n; i++ {
		r := fmaRate(1 << 20)
		p.probes = append(p.probes, probe{time.Now(), r})
	}
}

// sampleIdle takes a probe every interval while timed work runs beside
// it, and keeps only the probes that no work overlapped: a probe occupies
// every thread, so one that shares the CPUs with the work reads the work's
// load as a slower host. idle reports whether any work is in progress and
// a count of the units of work started so far; a probe is kept when no
// work was in progress before and after it and none started meanwhile.
// stop waits for the sampler to exit and returns how many probes it took
// and how many it kept. No other probe may be taken until stop returns.
func (p *speedProbe) sampleIdle(interval time.Duration, idle func() (started int64, ok bool)) (stop func() (taken, kept int)) {
	done := make(chan struct{})
	type outcome struct {
		probes []probe
		taken  int
	}
	result := make(chan outcome, 1)
	go func() {
		var out outcome
		defer func() { result <- out }()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			n0, ok := idle()
			if !ok {
				continue
			}
			r := fmaRate(1 << 20)
			out.taken++
			if n1, ok := idle(); ok && n1 == n0 {
				out.probes = append(out.probes, probe{time.Now(), r})
			}
		}
	}()
	return func() (int, int) {
		close(done)
		out := <-result
		p.probes = append(p.probes, out.probes...)
		return out.taken, len(out.probes)
	}
}

// factorAt returns the factor that turns a wall time measured around t
// into one at the reference speed: the median rate of the
// speedNeighbours probes nearest to t, over the reference rate.
func (p *speedProbe) factorAt(t time.Time) float64 {
	ps := p.probes
	i := sort.Search(len(ps), func(i int) bool { return !ps[i].at.Before(t) })
	lo, hi := i, i
	var near []float64
	for len(near) < speedNeighbours && (lo > 0 || hi < len(ps)) {
		if lo > 0 && (hi == len(ps) || t.Sub(ps[lo-1].at) <= ps[hi].at.Sub(t)) {
			lo--
			near = append(near, ps[lo].rate)
		} else {
			near = append(near, ps[hi].rate)
			hi++
		}
	}
	return quantile(near, 0.5) / speedRefGFlops
}

// refMs returns the wall time from start to end in ms at the reference
// speed, scaled by the speed around its midpoint.
func (p *speedProbe) refMs(start, end time.Time) float64 {
	d := end.Sub(start)
	return ms(d) * p.factorAt(start.Add(d/2))
}

// median returns the run's median probe rate over the reference rate,
// reported as host.speed.
func (p *speedProbe) median() float64 {
	rates := make([]float64, len(p.probes))
	for i, pr := range p.probes {
		rates[i] = pr.rate
	}
	return quantile(rates, 0.5) / speedRefGFlops
}

// wallMs returns the wall time from start to end in ms, unscaled: the
// per-layer timings.
func wallMs(start, end time.Time) float64 { return ms(end.Sub(start)) }

// parallel runs f(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}
