package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"stsk"
	"stsk/serve"
)

// hashVec fingerprints a vector bit for bit (an FNV-style mix of the
// float64 bits), so sampled answers can be compared with references after the
// timed phases without keeping the vectors.
func hashVec(x []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range x {
		h ^= math.Float64bits(v)
		h *= 1099511628211
		h ^= h >> 29
	}
	return h
}

// randVec returns a right-hand side with entries uniform in [−1, 1).
func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// valueScale is the factor value version v applies to the matrix's
// original values. Scaling every entry by a positive factor keeps the
// matrix symmetric positive definite, so IC(0) and CG stay well posed,
// while every version still forces a full refactorization.
func valueScale(seed int64, v int) float64 {
	if v == 0 {
		return 1
	}
	return 1 + 0.5*rand.New(rand.NewSource(seed*7919+int64(v))).Float64()
}

func scaled(orig []float64, s float64) []float64 {
	out := make([]float64, len(orig))
	for i, v := range orig {
		out[i] = v * s
	}
	return out
}

// relResidual is the true relative residual ‖b − A′x‖/‖b‖ of a PCG
// answer, recomputed through the plan's operator.
func relResidual(p *stsk.Plan, x, b []float64) float64 {
	ax := make([]float64, len(x))
	p.ApplySymmetric(ax, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

// sample is one served answer kept for the correctness gate: the value
// version in force while it was in flight, what was asked, and the
// answer's fingerprint.
type sample struct {
	plan    int
	version int
	variant string
	upper   bool
	rhs     int
	hash    uint64
}

// reference recomputes served answers with the sequential kernels of a
// plan the benchmark builds itself from the same inputs.
type reference struct {
	seed  int64
	plans []*stsk.Plan
	orig  [][]float64            // original values per plan
	pools [][][]float64          // right-hand sides per plan
	fp    func([]float64) uint64 // the samples' fingerprint; nil is hashVec
}

// solveRef is the bitwise reference for one request against a plan whose
// values are already those of the sample's version.
func solveRef(p *stsk.Plan, ic0 *stsk.Plan, s sample, b []float64) ([]float64, error) {
	if s.variant == serve.VariantIC0 {
		p = ic0
	}
	if s.upper {
		return p.SolveUpperWith(b, stsk.WithWorkers(1))
	}
	return p.SolveSequential(b)
}

// check compares every sample with its reference and returns how many
// differ. It leaves each plan at the last version it checked.
func (ref *reference) check(samples []sample) (wrong int, err error) {
	slices.SortFunc(samples, func(a, b sample) int {
		if a.plan != b.plan {
			return a.plan - b.plan
		}
		return a.version - b.version
	})
	cur := map[int]int{}
	var ic0 *stsk.Plan
	memo := map[[3]int]uint64{}
	fp := ref.fp
	if fp == nil {
		fp = hashVec
	}
	for _, s := range samples {
		p := ref.plans[s.plan]
		if v, ok := cur[s.plan]; !ok || v != s.version {
			if err := p.Refactor(scaled(ref.orig[s.plan], valueScale(ref.seed, s.version))); err != nil {
				return 0, fmt.Errorf("reference refactor: %w", err)
			}
			cur[s.plan] = s.version
			ic0 = nil
			clear(memo)
		}
		if s.variant == serve.VariantIC0 && ic0 == nil {
			if ic0, err = p.IC0(); err != nil {
				return 0, fmt.Errorf("reference IC0: %w", err)
			}
		}
		key := [3]int{s.rhs, boolInt(s.upper), boolInt(s.variant == serve.VariantIC0)}
		want, ok := memo[key]
		if !ok {
			x, err := solveRef(p, ic0, s, ref.pools[s.plan][s.rhs])
			if err != nil {
				return 0, fmt.Errorf("reference solve: %w", err)
			}
			want = fp(x)
			memo[key] = want
		}
		if want != s.hash {
			wrong++
		}
	}
	return wrong, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// refusedErr reports the serving layer's admission refusals, which count
// against the latency limit but are not failures.
func refusedErr(err error) bool {
	return errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrShed) ||
		errors.Is(err, serve.ErrDegraded) || errors.Is(err, serve.ErrDraining) ||
		errors.Is(err, serve.ErrPlanEvicted)
}
