package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tailLadder is the set of percentiles a ".tail" metric may report. The
// tail is the highest of these with at least minBeyond samples above it,
// so it is chosen from the sample count alone; phases run a fixed number
// of requests, which keeps the chosen percentile the same on every run.
// The rungs are a decade apart so that the tail of a phase of 100 to 999
// requests, as every fixed-rate repetition has, is its p90 and rests on
// 10 to 99 samples rather than on its ten worst.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

const minBeyond = 10

// tailPercentile returns the highest ladder percentile leaving at least
// minBeyond of n samples beyond it (50 when n is too small for any).
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// dist summarises one timing: median and tail with the percentile and
// sample count behind the tail.
type dist struct {
	n         int
	p50, tail float64
	tailP     float64
}

func summarize(vals []float64) dist {
	s := slices.Clone(vals)
	slices.Sort(s)
	p := tailPercentile(len(s))
	return dist{n: len(s), p50: percentile(s, 50), tail: percentile(s, p), tailP: p}
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return percentile(s, 50)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// span is one timed call the benchmark made into a layer's public API.
// Spans of one request share id; a span's self time is its duration
// minus the part of it covered by spans of the same id one layer down.
type span struct {
	ID    string  `json:"id"`
	Name  string  `json:"name"`
	Start int64   `json:"start_ns"`
	End   int64   `json:"end_ns"`
	Attr  float64 `json:"attr,omitempty"`
}

// recorder keeps spans in memory for the traced run; a nil recorder is
// the untraced run and records nothing.
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped atomic.Int64
}

// maxSpans bounds the recorder's memory; later spans are counted as
// dropped rather than stored.
const maxSpans = 1 << 19

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// record stores one span begun at start (from now) and ending now.
func (r *recorder) record(id, name string, start int64, attr float64) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{ID: id, Name: name, Start: start, End: end, Attr: attr})
	} else {
		r.dropped.Add(1)
	}
	r.mu.Unlock()
}

// byName returns the recorded spans of one layer.
func (r *recorder) byName(name string) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs returns the durations of one layer's spans in ms.
func (r *recorder) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range r.byName(name) {
		out = append(out, float64(s.End-s.Start)/1e6)
	}
	return out
}

// selfMs returns, per span of parent, its duration minus the union of
// the child spans sharing its id, in ms. Parents whose id has no child
// span are skipped.
func (r *recorder) selfMs(parent, child string) []float64 {
	kids := map[string][]span{}
	for _, s := range r.byName(child) {
		kids[s.ID] = append(kids[s.ID], s)
	}
	var out []float64
	for _, p := range r.byName(parent) {
		ks := kids[p.ID]
		if len(ks) == 0 {
			continue
		}
		out = append(out, float64(p.End-p.Start-covered(p, ks))/1e6)
	}
	return out
}

// covered returns how much of p's interval the union of ks covers.
func covered(p span, ks []span) int64 {
	slices.SortFunc(ks, func(a, b span) int { return int(a.Start - b.Start) })
	var total int64
	cur := p.Start
	for _, k := range ks {
		lo, hi := max(k.Start, cur), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// write stores the spans as JSON lines under dir, after a first line
// carrying the run's provenance.
func (r *recorder) write(dir, file string, prov map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	head := map[string]any{"provenance": prov, "dropped_spans": r.dropped.Load()}
	if err := enc.Encode(head); err != nil {
		f.Close()
		return "", err
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// goStats is a reading of the process-wide runtime counters behind
// go.alloc_kb_per_op and go.gc_cpu_frac.
type goStats struct{ allocBytes, gcCPU, totalCPU float64 }

var goSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goSamples))
	for i, n := range goSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// goDelta reports allocation per operation and the GC's share of CPU
// between two readings.
func goDelta(a, b goStats, ops int64) (allocKBPerOp, gcFrac float64) {
	if ops > 0 {
		allocKBPerOp = (b.allocBytes - a.allocBytes) / 1024 / float64(ops)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return
}

// promSums parses Prometheus text exposition into a map from series
// (name plus labels, as printed) to value.
func promSums(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out
}

// stageTotal sums a stage's ok and error sums (seconds) and counts from
// a parsed exposition.
func stageTotal(m map[string]float64, stage string) (sumS, count float64) {
	for _, oc := range []string{"ok", "error"} {
		lbl := fmt.Sprintf("{stage=%q,outcome=%q}", stage, oc)
		sumS += m["stsserve_stage_latency_seconds_sum"+lbl]
		count += m["stsserve_stage_latency_seconds_count"+lbl]
	}
	return
}
