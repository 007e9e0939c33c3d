// Command perfbench is the repository's benchmark. It runs one named
// workload against the public API of stsk, stsk/krylov and stsk/serve,
// checks every answer it samples, and prints its metrics as the last
// line of standard output:
//
//	perfbench --workload registry-mix --seed 1 --seconds 40 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//   - registry-mix: an in-process serve.Registry on a 20k-row grid3d STS-3
//     plan under open-loop Poisson arrivals (direct, upper and ic0 solves)
//     with value updates beside them.
//   - http-routed: loopback HTTP through a serve.Router to two
//     serve.Server replicas serving 5k-row grid3d and trimesh plans.
//
// A library-only PCG workload at 195k rows (working set inside the
// last-level cache) was measured and left out: on a 2-vCPU VM sharing its
// cache with the host, its timings drifted by 20-40% between runs minutes
// apart, for the same reason a DRAM-bound 1M-row run is left out.
//
// Every workload reports the same nine end-to-end metrics, so that the
// cells of different workloads compare one for one:
//
//   - setup_s: median over several set-ups of the wall time from the start
//     to the first correct answer (registration or fleet boot, the
//     benchmark's own reference build: matrix generation, Build, IC(0),
//     and the warm-up solves).
//   - pcg_ms.p50, pcg_ms.tail: one krylov.CG solve to rtol 1e-8 whose
//     IC(0) preconditioner sweeps are served requests, closed loop, one
//     caller: the paper's target traffic through the serving path.
//   - lat_ms.{p50,tail}.{lo,hi}: open-loop latency from each request's due
//     time at two fixed Poisson rates, each the median over interleaved
//     repetitions of the phase.
//   - max_rate_rps: the highest rate of a fixed ladder whose tail meets the
//     workload's limit with bounded backlog, found by a deterministic
//     bisection in which each rung's verdict is the majority of up to
//     three probes.
//   - update_ms.p50: one value update beside the open-loop traffic:
//     Registry.UpdateValues, or the router's broadcast PUT.
//
// A ".tail" is the highest of p50, p90, p99, p99.9 and p99.99 with at
// least ten samples beyond it; the report on standard error names the
// percentile and the sample count behind every tail, and the requests
// attempted, succeeded, failed and refused in every phase. A refused or
// failed request counts as missing the latency limit. Sampled answers are
// checked bit for bit against Plan.SolveSequential of the value version in
// force, and every PCG answer's true residual against the tolerance; a
// wrong answer is a failed operation and the command exits non-zero.
//
// With --trace 1 the same phases run with the benchmark's own spans
// recorded around its calls into each layer's public functions, and the
// per-layer metrics are printed instead. Spans of one HTTP request share
// the X-STS-Trace-Id the benchmark sets, which the router passes on, so
// client, router and replica spans link up; the spans are kept in memory
// and written to .bench_build/spans when the run ends. A layer that a
// workload does not call reports 0: serve.http.* and serve.router.* on
// registry-mix, and serve.reg.update_ms.p50 on http-routed, whose
// UpdateValues calls run inside the replicas. The serving stack runs at its
// production defaults in both modes, its own trace recorder armed, so the
// difference between the two runs is the benchmark's tracing overhead,
// which the traced run also measures directly (trace.overhead_pct).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// unit maps every metric the benchmark prints to its unit. endToEnd and
// perLayer fix the order of the two sets.
var unit = map[string]string{
	"setup_s":        "s",
	"pcg_ms.p50":     "ms",
	"pcg_ms.tail":    "ms",
	"lat_ms.p50.lo":  "ms",
	"lat_ms.tail.lo": "ms",
	"lat_ms.p50.hi":  "ms",
	"lat_ms.tail.hi": "ms",
	"max_rate_rps":   "1/s",
	"update_ms.p50":  "ms",

	"gen.load_ms":                   "ms",
	"order.build_ms":                "ms",
	"ichol.ic0_ms":                  "ms",
	"krylov.iters":                  "count",
	"krylov.precond_ms":             "ms",
	"krylov.precond_calls":          "count",
	"krylov.self_ms":                "ms",
	"solve.fwd_us.w1":               "us",
	"solve.fwd_us.wN":               "us",
	"solve.bwd_us.w1":               "us",
	"solve.bwd_us.wN":               "us",
	"solve.speedup":                 "x",
	"solve.gbps":                    "GB/s",
	"solve.roof_frac":               "ratio",
	"solve.panel8_us":               "us",
	"serve.reg.panel_width.mean":    "count",
	"serve.reg.batches":             "count",
	"serve.reg.queue_wait_ms.mean":  "ms",
	"serve.reg.kernel_ms.mean":      "ms",
	"serve.reg.solve_ms.p50.direct": "ms",
	"serve.reg.solve_ms.p50.upper":  "ms",
	"serve.reg.solve_ms.p50.ic0":    "ms",
	"serve.reg.update_ms.p50":       "ms",
	"serve.reg.refused_frac":        "ratio",
	"serve.reg.retries":             "count",
	"serve.http.server_ms.p50":      "ms",
	"serve.http.self_ms.p50":        "ms",
	"serve.http.body_kb":            "KB",
	"serve.router.ms.p50":           "ms",
	"serve.router.self_ms.p50":      "ms",
	"serve.router.hedge_frac":       "ratio",
	"serve.router.failovers":        "count",
	"go.alloc_kb_per_op":            "KB",
	"go.gc_cpu_frac":                "ratio",
	"probe.triad_gbps":              "GB/s",
	"load.gen_lag_ms.max":           "ms",
	"trace.overhead_pct":            "%",
}

var endToEnd = []string{
	"setup_s", "pcg_ms.p50", "pcg_ms.tail",
	"lat_ms.p50.lo", "lat_ms.tail.lo", "lat_ms.p50.hi", "lat_ms.tail.hi",
	"max_rate_rps", "update_ms.p50",
}

func perLayer() []string {
	var out []string
	for name := range unit {
		if !slices.Contains(endToEnd, name) {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // self-test sizes: tiny matrices, one rate, no search
}

// run is the state one workload fills in.
type run struct {
	cfg       config
	rec       *recorder // nil in the untraced run
	log       io.Writer
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64 // failed operations, wrong answers included
	wrong     int64 // answers the correctness gate rejected
	spanFile  string
}

// rng returns a generator for one purpose, derived from the seed so the
// same seed gives the same inputs whatever else the run does.
func (r *run) rng(purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", r.cfg.seed, r.cfg.workload, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// count books one operation: failed when err is non-nil.
func (r *run) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.logf("operation failed: %v", err)
	}
}

// gate books one correctness check; a wrong answer is a failed operation.
func (r *run) gate(ok bool, what string) {
	if !ok {
		r.wrong++
		r.failed++
		if r.wrong <= 5 {
			r.logf("WRONG ANSWER: %s", what)
		}
	}
}

// wrongAnswers books n answers the correctness gate rejected.
func (r *run) wrongAnswers(n int, what string) {
	for i := 0; i < n; i++ {
		r.gate(false, what)
	}
}

// book folds one open-loop phase into the run's accounting: refusals are
// attempted but not failed (they count against the latency limit).
func (r *run) book(p phaseResult) {
	r.attempted += p.attempted()
	r.failed += p.failedN
	r.logf("phase %s", p.describe())
}

var workloads = map[string]func(*run) error{
	"registry-mix": registryWorkload,
	"http-routed":  httpWorkload,
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and returns the result line.
func execute(cfg config, log io.Writer) (result, *run, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &run{cfg: cfg, log: log, e2e: map[string]float64{}, layer: map[string]float64{}}
	if cfg.trace {
		r.rec = newRecorder()
	}
	prov := provenance(cfg)
	pj, _ := json.Marshal(prov)
	r.logf("provenance %s", pj)
	if err := fn(r); err != nil {
		return result{}, r, err
	}
	names := endToEnd
	src := r.e2e
	if cfg.trace {
		names, src = perLayer(), r.layer
		path, err := r.rec.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed), prov)
		if err != nil {
			return result{}, r, fmt.Errorf("writing spans: %w", err)
		}
		r.spanFile = path
		r.logf("spans written to %s", path)
	}
	res := result{Correct: r.wrong == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, name := range names {
		v, ok := src[name]
		if !ok {
			return result{}, r, fmt.Errorf("workload %s did not measure %s", cfg.workload, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, r, fmt.Errorf("metric %s is not finite", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit[name]}
		r.logf("metric %-30s %14.6g %s", name, v, unit[name])
	}
	if res.Attempted < 1 {
		return result{}, r, errors.New("no operation attempted")
	}
	return res, r, nil
}

// provenance records where and what a run measured.
func provenance(cfg config) map[string]any {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"vcs.revision": rev,
		"vcs.modified": modified,
		"cpu":          cpuModel(),
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"date":         time.Now().UTC().Format(time.RFC3339),
		"seed":         cfg.seed,
		"workload":     cfg.workload,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: registry-mix or http-routed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 40, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, _, err := execute(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
