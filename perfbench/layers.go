package main

import (
	"context"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"stsk"
)

// solverLayers times the sweep kernels of plan through the public Solver:
// forward and backward sweeps at 1 worker and at GOMAXPROCS workers, and
// an 8-wide panel. It also runs the STREAM-triad probe and relates the
// sweep's computed bytes to it.
func (r *run) solverLayers(p *stsk.Plan) {
	n := p.N()
	nproc := runtime.GOMAXPROCS(0)
	b := randVec(r.rng("kernel-rhs"), n)
	x := make([]float64, n)
	// Enough repetitions for ~0.2 s per cell at this size.
	reps := max(20, min(400, 4_000_000/max(n, 1)))
	cell := func(name string, fn func() error) float64 {
		for i := 0; i < 3; i++ {
			_ = fn() // warm the pool and the caches
		}
		var us []float64
		for i := 0; i < reps; i++ {
			s := r.rec.now()
			t0 := time.Now()
			err := fn()
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			r.rec.record(name, name, s, 0)
			if err != nil {
				r.count(err)
				return 0
			}
		}
		return median(us)
	}
	for _, w := range []struct {
		tag     string
		workers int
	}{{"w1", 1}, {"wN", nproc}} {
		s := p.NewSolver(stsk.WithWorkers(w.workers))
		r.layer["solve.fwd_us."+w.tag] = cell("solve.fwd."+w.tag, func() error { return s.SolveInto(x, b) })
		r.layer["solve.bwd_us."+w.tag] = cell("solve.bwd."+w.tag, func() error { return s.SolveUpperInto(x, b) })
		if w.workers == nproc {
			B := make([][]float64, 8)
			X := make([][]float64, 8)
			for i := range B {
				B[i], X[i] = b, make([]float64, n)
			}
			r.layer["solve.panel8_us"] = cell("solve.panel8", func() error { return s.SolveBlockInto(context.Background(), X, B) })
		}
		s.Close()
	}
	if wN := r.layer["solve.fwd_us.wN"]; wN > 0 {
		r.layer["solve.speedup"] = r.layer["solve.fwd_us.w1"] / wN
		// Computed, not measured: each stored entry moves its value (8 B)
		// and column index (4 B); each row its right-hand side and
		// solution (8 B each) and row pointer (4 B). Cache misses and
		// reuse are ignored.
		bytes := float64(p.Stats().NNZ)*12 + float64(n)*20
		r.layer["solve.gbps"] = bytes / (wN * 1e3)
		r.logf("solve: %d rows, %d stored entries, %.0f bytes per sweep (computed)", n, p.Stats().NNZ, bytes)
	}
	triad := r.triad()
	r.layer["probe.triad_gbps"] = triad
	if triad > 0 {
		r.layer["solve.roof_frac"] = r.layer["solve.gbps"] / triad
	}
}

// llcBytes reads the size of the last-level cache; 128 MiB when the
// system does not say.
func llcBytes() int {
	best := 0
	for i := 0; i < 8; i++ {
		raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.Atoi(s); err == nil {
			best = max(best, v*mult)
		}
	}
	if best == 0 {
		return 128 << 20
	}
	return best
}

// triad is the STREAM triad a = b + s·c on GOMAXPROCS goroutines with
// each array four times the last-level cache, best of five passes, in
// GB/s counting 24 bytes per element.
func (r *run) triad() float64 {
	llc := llcBytes()
	n := 4 * llc / 8
	if r.cfg.tiny {
		n = 1 << 16
	}
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	par := func(fn func(lo, hi int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(lo, hi)
			}()
		}
		wg.Wait()
	}
	par(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b[i], c[i] = 1, 2
		}
	})
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		s := r.rec.now()
		t0 := time.Now()
		par(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + 3*c[i]
			}
		})
		d := time.Since(t0)
		r.rec.record("triad", "probe.triad", s, 0)
		best = max(best, 24*float64(n)/d.Seconds()/1e9)
	}
	r.logf("probe: STREAM triad %.2f GB/s, 3 arrays of %d MB each, last-level cache %d MB", best, n*8>>20, llc>>20)
	debug.FreeOSMemory()
	return best
}

// overheadPct compares op without the benchmark's spans (a nil
// recorder) and with them (a scratch recorder, so the comparison leaves
// the run's spans alone), interleaved in pairs so that drift hits both
// sides alike, and returns the median per-pair slowdown of the traced
// side in percent.
func overheadPct(op func(rec *recorder)) float64 {
	var ratios []float64
	for pair := 0; pair < 6; pair++ {
		var d [2]time.Duration
		for _, traced := range []bool{pair%2 == 0, pair%2 != 0} {
			var rec *recorder
			if traced {
				rec = newRecorder()
			}
			t0 := time.Now()
			op(rec)
			d[boolInt(traced)] = time.Since(t0)
		}
		ratios = append(ratios, float64(d[1])/float64(d[0]))
	}
	return (median(ratios) - 1) * 100
}
