package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stsk"
	"stsk/serve"
)

// serveShape sizes a serving workload.
type serveShape struct {
	n           int
	setups      int
	pcgSolves   int           // PCG solves through the service per 40 measured seconds
	updateEvery time.Duration // value-update period while the open loop runs
	sampleEvery int           // one answer in this many is checked bit for bit
	rates       rateShape
}

var registrySizes = serveShape{
	n: 20000, setups: 5, pcgSolves: 200, updateEvery: 2 * time.Second, sampleEvery: 8,
	rates: rateShape{
		reps: 9, ladder: ladder{base: 1000, step: 1.04, steps: 60}, hiRung: 28,
		loN: 900, hiN: 900, probeN: 5000, limit: 50 * time.Millisecond, search: true,
	},
}

var registryTiny = serveShape{
	n: 1000, setups: 2, pcgSolves: 3, updateEvery: 50 * time.Millisecond, sampleEvery: 1,
	rates: rateShape{ladder: ladder{base: 200, step: 1.04}, loN: 40, limit: 50 * time.Millisecond},
}

// reqKind is one kind of served request; span names the benchmark's span
// around a registry call of this kind.
type reqKind struct {
	name    string
	variant string
	upper   bool
	span    string
}

var (
	kindDirect = reqKind{"direct", serve.VariantDirect, false, "serve.reg.solve.direct"}
	kindUpper  = reqKind{"upper", serve.VariantDirect, true, "serve.reg.solve.upper"}
	kindIC0    = reqKind{"ic0", serve.VariantIC0, false, "serve.reg.solve.ic0"}
	kindIC0Up  = reqKind{"ic0", serve.VariantIC0, true, "serve.reg.solve.ic0"}
)

// mixTable draws the request mix: 70% direct forward sweeps, 15% upper
// sweeps, 15% forward sweeps of the IC(0) factor.
func mixTable(rng *rand.Rand, n int) []reqKind {
	t := make([]reqKind, n)
	for i := range t {
		switch u := rng.Float64(); {
		case u < 0.70:
			t[i] = kindDirect
		case u < 0.85:
			t[i] = kindUpper
		default:
			t[i] = kindIC0
		}
	}
	return t
}

// refPlan is the benchmark's own copy of a served plan, built from the
// same inputs, from which the correctness gate recomputes answers.
type refPlan struct {
	mat  *stsk.Matrix
	plan *stsk.Plan
	ic0  *stsk.Plan
}

func (r *run) buildRef(class string, n int) (*refPlan, error) {
	rp := &refPlan{}
	var err error
	if err = r.timed("gen.load", func() error { rp.mat, err = stsk.Generate(class, n); return err }); err != nil {
		return nil, err
	}
	if err = r.timed("order.build", func() error { rp.plan, err = stsk.Build(rp.mat, stsk.STS3); return err }); err != nil {
		return nil, err
	}
	var pc *stsk.IC0Preconditioner
	if err = r.timed("ichol.ic0", func() error { pc, err = stsk.NewIC0(rp.plan); return err }); err != nil {
		return nil, err
	}
	pc.Close()
	rp.ic0 = pc.Factor()
	return rp, nil
}

// warmCheck solves b once per request kind through solve and compares
// each answer with the reference bit for bit.
func (r *run) warmCheck(tag string, rp *refPlan, b []float64, solve func(k reqKind, b []float64) ([]float64, error)) error {
	for _, k := range []reqKind{kindDirect, kindUpper, kindIC0, kindIC0Up} {
		x, err := solve(k, b)
		r.count(err)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", k.name, err)
		}
		want, err := solveRef(rp.plan, rp.ic0, sample{variant: k.variant, upper: k.upper}, b)
		if err != nil {
			return err
		}
		r.gate(hashVec(x) == hashVec(want), fmt.Sprintf("%s warm-up %s upper=%v differs from the sequential sweep", tag, k.name, k.upper))
	}
	return nil
}

// servedPrecond is an IC(0) preconditioner whose two sweeps are served
// requests: the PCG client of a service.
type servedPrecond struct {
	solve func(k reqKind, b []float64) ([]float64, error)
}

func (p servedPrecond) Apply(z, r []float64) error {
	y, err := p.solve(kindIC0, r)
	if err != nil {
		return err
	}
	x, err := p.solve(kindIC0Up, y)
	if err != nil {
		return err
	}
	copy(z, x)
	return nil
}

// versionClock tracks the value version in force: 2v while version v is
// stable, 2v−1 while the update to v is in flight. An answer whose
// request began and ended at the same even reading was computed with
// version v alone.
type versionClock struct{ state atomic.Int64 }

func (c *versionClock) read() int64 { return c.state.Load() }

// updater applies value updates beside an open-loop phase: K updates
// at fixed fractions (k+½)/K of the phase's expected duration, K the
// duration over the period rounded (at least one), so every run of a
// phase sees the same number of updates at the same moments. Versions
// count on across phases.
type updater struct {
	clock  versionClock
	period time.Duration
	apply  func(v int) error
	v      int
	times  []float64
	errs   []error
}

func newUpdater(period time.Duration, apply func(v int) error) *updater {
	return &updater{period: period, apply: apply}
}

// during starts the updates of one phase expected to last d and returns
// the function that stops them and waits for the update in flight. A nil
// updater does nothing.
func (u *updater) during(d time.Duration) (stop func()) {
	if u == nil {
		return func() {}
	}
	k := max(1, int(math.Round(float64(d)/float64(u.period))))
	quit, done := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for i := 0; i < k; i++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration((float64(i) + 0.5) / float64(k) * float64(d)))))
			select {
			case <-quit:
				t.Stop()
				return
			case <-t.C:
			}
			if len(u.errs) > 0 {
				return // the version in force is unknown; check nothing after
			}
			u.v++
			u.clock.state.Store(int64(2*u.v - 1))
			t0 := time.Now()
			err := u.apply(u.v)
			if err != nil {
				u.errs = append(u.errs, err)
				continue
			}
			u.times = append(u.times, ms(time.Since(t0)))
			u.clock.state.Store(int64(2 * u.v))
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// sampler keeps the fingerprints of every sampleEvery-th answer that
// ran within one value version.
type sampler struct {
	every   int
	mu      sync.Mutex
	samples []sample
}

// keep records request i's answer, fingerprinted by fp, when i is a
// sampled request and the version clock read the same even value before
// and after it; version maps that value's version to the sample's.
func (s *sampler) keep(i int, before, after int64, smp sample, version func(v int) int, fp func() uint64) {
	if i%s.every != 0 || before != after || before%2 != 0 {
		return
	}
	smp.version = version(int(before / 2))
	smp.hash = fp()
	s.mu.Lock()
	s.samples = append(s.samples, smp)
	s.mu.Unlock()
}

// settleRegistry waits until the registry's queues are empty and its
// brownout controller reports healthy, so the next phase starts idle.
func settleRegistry(regs ...*serve.Registry) {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		idle := true
		for _, reg := range regs {
			st, _ := reg.BrownoutState()
			idle = idle && reg.QueueDepth() == 0 && st == serve.BrownoutHealthy
		}
		if idle {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scrape reads a handler's Prometheus exposition in process.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return promSums(rec.Body.String())
}

// regCounters is a reading of the registries' public counters.
type regCounters struct {
	batches, widthSum, retries float64
	qwS, qwN, kS, kN           float64
}

func readRegCounters(regs ...*serve.Registry) regCounters {
	var c regCounters
	for _, reg := range regs {
		s := reg.Metrics().Snapshot()
		c.batches += float64(s.Batches)
		c.widthSum += float64(s.WidthSum)
		c.retries += float64(s.Retries)
		m := scrape(serve.NewServer(reg))
		qs, qn := stageTotal(m, "queue_wait")
		ks, kn := stageTotal(m, "kernel")
		c.qwS, c.qwN, c.kS, c.kN = c.qwS+qs, c.qwN+qn, c.kS+ks, c.kN+kn
	}
	return c
}

// regLayers fills serve.reg.* from two counter readings.
func (r *run) regLayers(a, b regCounters) {
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	r.layer["serve.reg.batches"] = b.batches - a.batches
	r.layer["serve.reg.panel_width.mean"] = div(b.widthSum-a.widthSum, b.batches-a.batches)
	r.layer["serve.reg.retries"] = b.retries - a.retries
	r.layer["serve.reg.queue_wait_ms.mean"] = 1e3 * div(b.qwS-a.qwS, b.qwN-a.qwN)
	r.layer["serve.reg.kernel_ms.mean"] = 1e3 * div(b.kS-a.kS, b.kN-a.kN)
}

// zeroLayers sets the metrics of layers a workload does not call.
func (r *run) zeroLayers(prefixes ...string) {
	for _, name := range perLayer() {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				r.layer[name] = 0
			}
		}
	}
}

const regPlan = "grid3d"

func registryWorkload(r *run) error {
	sz := registrySizes
	if r.cfg.tiny {
		sz = registryTiny
	}
	pool := make([][]float64, 16)
	var reg *serve.Registry
	var rp *refPlan
	defer func() {
		if reg != nil {
			reg.Close()
		}
	}()
	solve := func(k reqKind, b []float64) ([]float64, error) {
		return reg.Solve(context.Background(), regPlan, k.variant, k.upper, b)
	}
	var setups []float64
	for k := 0; k < sz.setups; k++ {
		if reg != nil {
			reg.Close()
		}
		t0 := time.Now()
		reg = serve.NewRegistry(serve.Config{})
		_, err := reg.Register(serve.PlanSpec{Name: regPlan, Class: "grid3d", N: sz.n})
		r.count(err)
		if err != nil {
			return fmt.Errorf("register: %w", err)
		}
		if rp, err = r.buildRef("grid3d", sz.n); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		if k == 0 {
			rng := r.rng("serve-rhs")
			for i := range pool {
				pool[i] = randVec(rng, rp.plan.N())
			}
		}
		if err := r.warmCheck("registry", rp, pool[0], solve); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = median(setups)
	r.logf("setup_s %.4f (median of %d set-ups: %v)", r.e2e["setup_s"], len(setups), setups)

	// PCG whose preconditioner sweeps are served by the registry, closed
	// loop, before any value update (the reference is at version 0).
	nPCG := max(int(float64(sz.pcgSolves)*r.cfg.seconds/40), 3)
	pc := servedPrecond{solve: solve}
	times, iters, _ := r.pcgLoop("pcg", func() *stsk.Plan { return rp.plan },
		func() stsk.Preconditioner { return pc }, nPCG, nil)
	d := summarize(times)
	r.e2e["pcg_ms.p50"], r.e2e["pcg_ms.tail"] = d.p50, d.tail
	r.logf("pcg_ms (served IC(0) sweeps): %d solves, p50 %.3f ms, tail = p%g %.3f ms", d.n, d.p50, d.tailP, d.tail)

	// Open loop with value updates beside it.
	orig := rp.mat.Values()
	upd := newUpdater(sz.updateEvery, func(v int) error {
		s := r.rec.now()
		_, err := reg.UpdateValues(regPlan, scaled(orig, valueScale(r.cfg.seed, v)), 0)
		r.rec.record("", "serve.reg.update", s, 0)
		return err
	})
	mix := mixTable(r.rng("mix"), 1<<16)
	smp := &sampler{every: sz.sampleEvery}
	var refusedN, attempted atomic.Int64
	// Request spans are recorded in the fixed-rate phases only, like the
	// layer counters below, not in the search's probes past capacity.
	var live atomic.Pointer[recorder]
	live.Store(r.rec)
	issue := func(i int, due time.Time) (outcome, time.Time) {
		k := mix[i%len(mix)]
		rhs := i % len(pool)
		before := upd.clock.read()
		rec := live.Load()
		s := rec.now()
		x, err := reg.Solve(context.Background(), regPlan, k.variant, k.upper, pool[rhs])
		done := time.Now()
		rec.record("", k.span, s, 0)
		attempted.Add(1)
		if err != nil {
			if refusedErr(err) {
				refusedN.Add(1)
				return refused, done
			}
			r.logf("solve: %v", err)
			return errored, done
		}
		smp.keep(i, before, upd.clock.read(), sample{variant: k.variant, upper: k.upper, rhs: rhs},
			func(v int) int { return v }, func() uint64 { return hashVec(x) })
		return succeeded, done
	}
	// The layer counters cover the fixed-rate phases, not the search's
	// probes past capacity.
	c0, g0 := readRegCounters(reg), readGoStats()
	var c1 regCounters
	var g1 goStats
	var fixedN int64
	lag := r.openLoop(sz.rates, 0, issue, upd, func() { settleRegistry(reg) }, func() {
		live.Store(nil)
		c1, g1, fixedN = readRegCounters(reg), readGoStats(), attempted.Load()
		r.layer["serve.reg.refused_frac"] = float64(refusedN.Load()) / float64(max(fixedN, 1))
	})
	for _, err := range upd.errs {
		r.count(err)
	}
	r.attempted += int64(len(upd.times))
	r.e2e["update_ms.p50"] = median(upd.times)
	r.logf("update_ms.p50 %.3f over %d updates", r.e2e["update_ms.p50"], len(upd.times))

	ref := &reference{seed: r.cfg.seed, plans: []*stsk.Plan{rp.plan}, orig: [][]float64{orig}, pools: [][][]float64{pool}}
	wrong, err := ref.check(smp.samples)
	if err != nil {
		return err
	}
	r.wrongAnswers(wrong, "served answer differs from the sequential sweep of its value version")
	r.logf("correctness: %d PCG residuals, %d sampled answers checked bit for bit, %d wrong", len(times), len(smp.samples), wrong)

	if r.rec == nil {
		return nil
	}
	r.setupLayers()
	r.krylovLayers(iters)
	r.regLayers(c0, c1)
	for _, k := range []string{"direct", "upper", "ic0"} {
		r.layer["serve.reg.solve_ms.p50."+k] = median(r.rec.durationsMs("serve.reg.solve." + k))
	}
	r.layer["serve.reg.update_ms.p50"] = median(r.rec.durationsMs("serve.reg.update"))
	r.layer["go.alloc_kb_per_op"], r.layer["go.gc_cpu_frac"] = goDelta(g0, g1, fixedN)
	r.layer["load.gen_lag_ms.max"] = ms(lag)
	r.zeroLayers("serve.http.", "serve.router.") // no HTTP on this path
	r.solverLayers(rp.plan)
	r.layer["trace.overhead_pct"] = overheadPct(func(rec *recorder) {
		for i := 0; i < 200; i++ {
			s := rec.now()
			_, err := solve(kindDirect, pool[i%len(pool)])
			rec.record("", kindDirect.span, s, 0)
			if err != nil {
				r.count(err)
			}
		}
	})
	return nil
}
