package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one request of an open-loop phase.
type outcome int

const (
	succeeded outcome = iota
	refused           // admission control said no (queue full, 429/503)
	errored           // any other failure, wrong answers included
)

// phase is one open-loop stretch at a fixed Poisson rate with a fixed
// request count, so every run computes its tail at the same percentile.
type phase struct {
	name  string
	rate  float64 // requests per second
	n     int
	limit time.Duration // tail limit; a probe stops early once it cannot meet it
	probe bool
}

// phaseResult is the accounting of one phase.
type phaseResult struct {
	phase
	lat                   []float64 // ms from due time; +Inf when refused or failed
	ok, refusedN, failedN int64
	lagMax                time.Duration // how late the generator issued a request
	inflightEnd           int64         // requests outstanding when generation ended
	wall                  time.Duration
	aborted               bool
}

// issueFunc sends request i, which was due at due, and returns its
// outcome and the moment its answer arrived. Work after the answer (the
// correctness sample) is not on the request's clock.
type issueFunc func(i int, due time.Time) (outcome, time.Time)

// runPhase drives one open-loop phase. workers == 0 issues every request
// on its own goroutine at its due time; workers > 0 hands due requests to
// that many callers (one per connection), so requests queue in the
// client once all callers are busy. Latency counts from the due time
// either way.
func runPhase(ph phase, rng *rand.Rand, workers int, issue issueFunc) phaseResult {
	res := phaseResult{phase: ph, lat: make([]float64, ph.n)}
	due := make([]time.Duration, ph.n)
	t := time.Duration(0)
	for i := range due {
		t += time.Duration(rng.ExpFloat64() / ph.rate * 1e9)
		due[i] = t
	}
	// A probe that already has more misses than its tail allows cannot
	// pass, so it stops issuing; misses counts them.
	allowed := int64(ph.n - rank(tailPercentile(ph.n), ph.n))
	var misses, inflight atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	finish := func(i int, o outcome, done time.Time) {
		d := done.Sub(start.Add(due[i]))
		res.lat[i] = ms(d)
		if o != succeeded {
			res.lat[i] = math.Inf(1)
		}
		if o != succeeded || d > ph.limit {
			if misses.Add(1) > allowed && ph.probe {
				stop.Store(true)
			}
		}
		inflight.Add(-1)
	}
	outcomes := make([]outcome, ph.n)
	issued := make([]bool, ph.n)
	var queue chan int
	if workers > 0 {
		queue = make(chan int, ph.n) // sized to the number of sends
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range queue {
					o, done := issue(i, start.Add(due[i]))
					outcomes[i] = o
					finish(i, o, done)
				}
			}()
		}
	}
	for i := 0; i < ph.n && !stop.Load(); i++ {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		res.lagMax = max(res.lagMax, time.Since(at))
		issued[i] = true
		inflight.Add(1)
		if workers > 0 {
			queue <- i
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, done := issue(i, at)
			outcomes[i] = o
			finish(i, o, done)
		}(i)
	}
	res.inflightEnd = inflight.Load()
	if queue != nil {
		close(queue)
	}
	wg.Wait()
	res.wall = time.Since(start)
	kept := res.lat[:0]
	for i := range issued {
		if !issued[i] {
			res.aborted = true
			continue
		}
		switch outcomes[i] {
		case succeeded:
			res.ok++
		case refused:
			res.refusedN++
		default:
			res.failedN++
		}
		kept = append(kept, res.lat[i])
	}
	res.lat = kept
	return res
}

// attempted is the number of requests the phase issued.
func (r phaseResult) attempted() int64 { return r.ok + r.refusedN + r.failedN }

// passes reports whether the phase met its latency limit at its tail
// with bounded backlog: it ran to the end, every request succeeded
// within the tail, the generator kept to its schedule, the requests
// outstanding at the end stay within what Little's law allows when every
// request meets the limit, and the median latency of the last quarter of
// requests is
// within a quarter of the limit of the first quarter's (a queue that
// grows through the phase fails even while its tail is under the limit).
func (r phaseResult) passes(callers int) bool {
	if r.aborted || len(r.lat) < r.n {
		return false
	}
	d := summarize(r.lat)
	backlog := r.rate*r.limit.Seconds() + float64(callers)
	q := len(r.lat) / 4
	growth := median(r.lat[len(r.lat)-q:]) - median(r.lat[:q])
	return d.tail <= ms(r.limit) && r.lagMax <= r.limit && float64(r.inflightEnd) <= backlog &&
		growth <= ms(r.limit)/4
}

// describe is the human-readable accounting line of a phase.
func (r phaseResult) describe() string {
	d := summarize(r.lat)
	return fmt.Sprintf("%-10s rate=%7.1f/s n=%6d attempted=%d ok=%d refused=%d failed=%d p50=%.3fms p%g=%.3fms lag.max=%.3fms inflight.end=%d wall=%.2fs aborted=%v",
		r.name, r.rate, r.n, r.attempted(), r.ok, r.refusedN, r.failedN, d.p50, d.tailP, d.tail,
		ms(r.lagMax), r.inflightEnd, r.wall.Seconds(), r.aborted)
}

// ladder is the fixed set of rates the max-rate search may report:
// base·step^k for k = 0..steps. Its resolution is step−1.
type ladder struct {
	base, step float64
	steps      int
}

func (l ladder) rate(k int) float64 { return l.base * math.Pow(l.step, float64(k)) }

// search bisects the ladder for the highest rung that passes, given
// that rung pass (−1 for none) passes and rung fail fails. Each rung's
// verdict is the majority of up to three probes, so one stall or one
// lucky stretch of the machine does not decide the result. The probe
// order depends only on the outcomes, so the search is deterministic. It
// returns the rate and the number of probes run.
func (l ladder) search(pass, fail int, probe func(rung int) bool) (float64, int) {
	lo, hi := pass, fail
	probes := 0
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		votes := 0
		for try := 0; try < 3 && votes > -2 && votes < 2; try++ {
			probes++
			if probe(mid) {
				votes++
			} else {
				votes--
			}
		}
		if votes > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, probes
	}
	return l.rate(lo), probes
}

// rateShape is a workload's open-loop plan: the rate ladder, the rungs
// of the low and high fixed rates, how many interleaved repetitions of
// each fixed rate run (the reported p50 and tail are the medians of the
// repetitions' own, so one stall of the machine moves one repetition and
// not the result), request counts per repetition or probe per 40
// measured seconds, and the tail limit max_rate_rps is held to.
type rateShape struct {
	reps     int
	ladder   ladder
	hiRung   int
	loN, hiN int
	probeN   int
	limit    time.Duration
	search   bool
}

// openLoop runs the low and high fixed-rate phases and the max-rate
// search, fills the latency and rate metrics, and returns the worst
// generator lateness. settle runs after each phase so that every phase
// starts from an idle system; fixedDone, when not nil, runs between the
// fixed-rate phases and the search.
func (r *run) openLoop(sh rateShape, workers int, issue issueFunc, upd *updater, settle, fixedDone func()) (lag time.Duration) {
	scale := r.cfg.seconds / 40
	count := func(base int) int { return max(int(math.Round(float64(base)*scale)), 20) }
	callers := max(workers, runtime.GOMAXPROCS(0))
	run := func(name string, rung, n int, probe bool) phaseResult {
		ph := phase{name: name, rate: sh.ladder.rate(rung), n: n, limit: sh.limit, probe: probe}
		stop := upd.during(time.Duration(float64(n) / ph.rate * 1e9))
		res := runPhase(ph, r.rng("arrivals-"+name), workers, issue)
		stop()
		r.book(res)
		lag = max(lag, res.lagMax)
		if settle != nil {
			settle()
		}
		return res
	}
	fixed := []struct {
		tag  string
		rung int
		n    int
	}{{"lo", 0, count(sh.loN)}, {"hi", sh.hiRung, count(sh.hiN)}}
	passed := map[string]int{}
	perRep := map[string][]float64{}
	reps := max(sh.reps, 1)
	for rep := 1; rep <= reps; rep++ {
		for _, f := range fixed {
			res := run(fmt.Sprintf("%s.%d", f.tag, rep), f.rung, f.n, false)
			d := summarize(res.lat)
			perRep[f.tag+".p50"] = append(perRep[f.tag+".p50"], finiteMs(d.p50, res))
			perRep[f.tag+".tail"] = append(perRep[f.tag+".tail"], finiteMs(d.tail, res))
			if res.passes(callers) {
				passed[f.tag]++
			}
		}
	}
	for _, f := range fixed {
		p := tailPercentile(f.n)
		r.e2e["lat_ms.p50."+f.tag] = median(perRep[f.tag+".p50"])
		r.e2e["lat_ms.tail."+f.tag] = median(perRep[f.tag+".tail"])
		r.logf("lat %s: rate %.1f/s, %d repetitions of %d samples, median p50 %.3f ms, median tail = p%g %.3f ms (per repetition %.3f / %.3f)",
			f.tag, sh.ladder.rate(f.rung), reps, f.n, r.e2e["lat_ms.p50."+f.tag], p, r.e2e["lat_ms.tail."+f.tag],
			perRep[f.tag+".p50"], perRep[f.tag+".tail"])
	}
	if fixedDone != nil {
		fixedDone()
	}
	// A fixed rate that passed in most repetitions is a known lower end
	// for the search. A failing one is not trusted as the upper end (it may
	// have met a stall), so the search then spans the whole ladder above.
	pass := -1
	if 2*passed["lo"] > reps {
		pass = 0
	}
	if 2*passed["hi"] > reps {
		pass = sh.hiRung
	}
	rate := sh.ladder.rate(max(pass, 0))
	if sh.search {
		var probes int
		tries := map[int]int{}
		rate, probes = sh.ladder.search(pass, sh.ladder.steps+1, func(k int) bool {
			tries[k]++
			name := fmt.Sprintf("probe%d.%d", k, tries[k])
			return run(name, k, count(sh.probeN), true).passes(callers)
		})
		r.logf("max_rate_rps %.1f after %d probes (ladder %.1f·%.2f^k, k ≤ %d, limit %v at the tail)",
			rate, probes, sh.ladder.base, sh.ladder.step, sh.ladder.steps, sh.limit)
	}
	r.e2e["max_rate_rps"] = rate
	return lag
}

// finiteMs reports a percentile; one that falls on a refused or failed
// request (+Inf) is reported as the phase's whole wall time, the longest
// any of its requests could have waited.
func finiteMs(v float64, p phaseResult) float64 {
	if math.IsInf(v, 1) {
		return ms(p.wall)
	}
	return v
}

// describe states the fixed rates and the tail limit as BENCHMARK.json
// records them.
func (s rateShape) describe() string {
	return fmt.Sprintf("lo %.0f/s, hi %.0f/s, tail limit %v", s.ladder.rate(0), s.ladder.rate(s.hiRung), s.limit)
}
