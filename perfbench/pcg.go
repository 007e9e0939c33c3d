package main

import (
	"context"
	"fmt"
	"time"

	"stsk"
	"stsk/krylov"
)

// pcgTol is the relative-residual tolerance of every PCG solve.
const pcgTol = 1e-8

// timed records a set-up span named name around fn.
func (r *run) timed(name string, fn func() error) error {
	s := r.rec.now()
	err := fn()
	r.rec.record("setup", name, s, 0)
	return err
}

// tracedPrecond wraps Preconditioner.Apply in a span named
// krylov.precond under the current solve's id.
type tracedPrecond struct {
	m   stsk.Preconditioner
	rec *recorder
	id  string
}

func (t *tracedPrecond) Apply(z, r []float64) error {
	s := t.rec.now()
	err := t.m.Apply(z, r)
	t.rec.record(t.id, "krylov.precond", s, 0)
	return err
}

// pcgLoop runs n closed-loop PCG solves on fresh seeded right-hand sides
// and checks each answer's true residual. between runs after solve i off
// the clock (value updates). It returns per-solve times in ms, the
// iteration counts, and the loop's lateness: the longest gap between one
// answer and the next request.
func (r *run) pcgLoop(tag string, plan func() *stsk.Plan, pc func() stsk.Preconditioner, n int, between func(i int)) (times []float64, iters []int, lag time.Duration) {
	rng := r.rng("pcg-rhs-" + tag)
	var last time.Time
	for i := 0; i < n; i++ {
		p := plan()
		b := randVec(rng, p.N())
		m := pc()
		id := fmt.Sprintf("%s-%d", tag, i)
		if r.rec != nil {
			m = &tracedPrecond{m: m, rec: r.rec, id: id}
		}
		s := r.rec.now()
		t0 := time.Now()
		if !last.IsZero() {
			lag = max(lag, t0.Sub(last))
		}
		x, st, err := krylov.CG(context.Background(), p, b, krylov.WithPreconditioner(m), krylov.WithTolerance(pcgTol))
		d := time.Since(t0)
		r.rec.record(id, "krylov.cg", s, float64(st.Iterations))
		r.count(err)
		if err == nil {
			res := relResidual(p, x, b)
			r.gate(res <= pcgTol, fmt.Sprintf("%s PCG %d true residual %.3g > %g", tag, i, res, pcgTol))
		}
		times = append(times, ms(d))
		iters = append(iters, st.Iterations)
		if between != nil {
			between(i)
		}
		last = time.Now()
	}
	return times, iters, lag
}

// krylovLayers fills the krylov.* metrics from the spans of one loop.
func (r *run) krylovLayers(iters []int) {
	its := make([]float64, len(iters))
	for i, v := range iters {
		its[i] = float64(v)
	}
	r.layer["krylov.iters"] = median(its)
	per := map[string]float64{}
	calls := map[string]float64{}
	for _, s := range r.rec.byName("krylov.precond") {
		per[s.ID] += float64(s.End-s.Start) / 1e6
		calls[s.ID]++
	}
	var pm, pc []float64
	for id, v := range per {
		pm = append(pm, v)
		pc = append(pc, calls[id])
	}
	r.layer["krylov.precond_ms"] = median(pm)
	r.layer["krylov.precond_calls"] = median(pc)
	r.layer["krylov.self_ms"] = median(r.rec.selfMs("krylov.cg", "krylov.precond"))
}

// setupLayers fills the set-up layer metrics from the set-up spans.
func (r *run) setupLayers() {
	r.layer["gen.load_ms"] = median(r.rec.durationsMs("gen.load"))
	r.layer["order.build_ms"] = median(r.rec.durationsMs("order.build"))
	r.layer["ichol.ic0_ms"] = median(r.rec.durationsMs("ichol.ic0"))
}
