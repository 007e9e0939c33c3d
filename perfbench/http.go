package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stsk"
	"stsk/serve"
)

// httpSizes serves two 5k-row plans: at this size a round trip (about
// 5 ms, nearly all of it JSON) is still some hundred sweeps long, and a
// run holds enough requests for steady tails.
var httpSizes = serveShape{
	n: 5000, setups: 5, pcgSolves: 24, updateEvery: 2 * time.Second, sampleEvery: 4,
	rates: rateShape{
		reps: 5, ladder: ladder{base: 40, step: 1.04, steps: 60}, hiRung: 24,
		loN: 100, hiN: 150, probeN: 200, limit: 100 * time.Millisecond, search: true,
	},
}

var httpTiny = serveShape{
	n: 1000, setups: 2, pcgSolves: 2, updateEvery: 100 * time.Millisecond, sampleEvery: 1,
	rates: rateShape{ladder: ladder{base: 100, step: 1.04}, loN: 30, limit: 100 * time.Millisecond},
}

var httpClasses = []string{"grid3d", "trimesh"}

// spanHandler records one span per solve request around a layer's
// ServeHTTP, under the request's X-STS-Trace-Id, into the fleet's current
// recorder, and counts requests.
type spanHandler struct {
	next  http.Handler
	name  string
	rec   *atomic.Pointer[recorder]
	count atomic.Int64
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	h.count.Add(1)
	rec := h.rec.Load()
	s := rec.now()
	h.next.ServeHTTP(w, req)
	if rec != nil && req.URL.Path == "/v1/solve" {
		rec.record(req.Header.Get("X-STS-Trace-Id"), h.name, s, 0)
	}
}

// fleet is two replicas behind a router, all on loopback listeners.
type fleet struct {
	rec      atomic.Pointer[recorder] // where the handlers record; nil outside traced fixed-rate phases
	regs     []*serve.Registry
	replicas []*spanHandler
	router   *serve.Router
	servers  []*http.Server
	serving  sync.WaitGroup // one per Serve goroutine
	url      string
	client   *http.Client
	names    []string // served plan name per class, each on its own replica
}

// serveOn serves h on a fresh loopback listener until the fleet closes.
func (f *fleet) serveOn(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// bootFleet starts two replicas, each a Registry at its production
// defaults behind a Server, and a Router in front of them.
func bootFleet() (*fleet, error) {
	f := &fleet{}
	var backends []string
	for i := 0; i < 2; i++ {
		reg := serve.NewRegistry(serve.Config{})
		f.regs = append(f.regs, reg)
		h := &spanHandler{next: serve.NewServer(reg), name: "serve.http", rec: &f.rec}
		f.replicas = append(f.replicas, h)
		url, err := f.serveOn(h)
		if err != nil {
			f.close()
			return nil, err
		}
		backends = append(backends, url)
	}
	rt, err := serve.NewRouter(serve.RouterConfig{Backends: backends})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	url, err := f.serveOn(&spanHandler{next: rt, name: "serve.router", rec: &f.rec})
	if err != nil {
		f.close()
		return nil, err
	}
	f.url = url
	nproc := runtime.GOMAXPROCS(0)
	f.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	return f, nil
}

// close stops the listeners and waits for them, then the router's
// prober and the registries.
func (f *fleet) close() {
	for _, s := range f.servers {
		_ = s.Close()
	}
	f.serving.Wait()
	if f.router != nil {
		f.router.Close()
	}
	for _, reg := range f.regs {
		reg.Close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// do sends one request through the router, leaving the response body in
// buf, and returns the status.
func (f *fleet) do(method, path, traceID string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, f.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-STS-Trace-Id", traceID)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	return resp.StatusCode, err
}

// placePlans picks, per class, a plan name the router's hash sends to its
// own replica, by asking the router for unregistered names (a 404 from
// whichever replica the ring chose) and watching which replica answered.
func (f *fleet) placePlans() error {
	var buf bytes.Buffer
	for ci, class := range httpClasses {
		want := ci % len(f.replicas)
		for k := 0; ; k++ {
			if k == 64 {
				return fmt.Errorf("no plan name for %s lands on replica %d", class, want)
			}
			name := fmt.Sprintf("%s-%d", class, k)
			before := f.replicas[want].count.Load()
			body, _ := json.Marshal(serve.SolveRequest{Plan: name})
			if _, err := f.do(http.MethodPost, "/v1/solve", "", body, &buf); err != nil {
				return err
			}
			if f.replicas[want].count.Load() > before {
				f.names = append(f.names, name)
				break
			}
		}
	}
	return nil
}

// xText returns the JSON text of the solution array in a solve response.
// encoding/json prints each float64 in its shortest round-trip form, so
// equal text means bitwise-equal solutions.
func xText(body []byte) []byte {
	const head = `{"x":`
	if !bytes.HasPrefix(body, []byte(head)) {
		return nil
	}
	end := bytes.Index(body, []byte(`,"plan":`))
	if end < 0 {
		return nil
	}
	return body[len(head):end]
}

// durationMs reads the registry time the replica reports at the end of a
// solve response.
func durationMs(body []byte) float64 {
	i := bytes.LastIndex(body, []byte(`"durationMs":`))
	if i < 0 {
		return 0
	}
	rest := body[i+len(`"durationMs":`):]
	j := bytes.IndexByte(rest, '}')
	if j < 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(string(rest[:j]), 64)
	return v
}

func jsonFingerprint(x []float64) uint64 {
	raw, _ := json.Marshal(x)
	return uint64(crc32.Checksum(raw, crcTable))
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var errStatus = errors.New("unexpected HTTP status")

func httpWorkload(r *run) error {
	sz := httpSizes
	if r.cfg.tiny {
		sz = httpTiny
	}
	pools := make([][][]float64, len(httpClasses)) // right-hand sides per plan
	var f *fleet
	var refs []*refPlan
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	var traceSeq atomic.Int64
	// solveHTTP is one solve through the router, leaving the response body
	// in buf. Given a recorder it sets the request's trace id, which the
	// router passes on to the replica, and records a client span carrying
	// the registry time the replica reports.
	solveHTTP := func(rec *recorder, k reqKind, body []byte, buf *bytes.Buffer) (int, error) {
		id := ""
		if rec != nil {
			id = "pb-" + strconv.FormatInt(traceSeq.Add(1), 10)
		}
		s := rec.now()
		code, err := f.do(http.MethodPost, "/v1/solve", id, body, buf)
		if rec != nil && code == http.StatusOK {
			rec.record(id, "client."+k.name, s, durationMs(buf.Bytes()))
		}
		return code, err
	}
	encode := func(plan int, k reqKind, b []float64) []byte {
		body, _ := json.Marshal(serve.SolveRequest{Plan: f.names[plan], B: b, Upper: k.upper, Variant: k.variant})
		return body
	}
	decodeX := func(code int, err error, buf *bytes.Buffer) ([]float64, error) {
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("%w %d: %s", errStatus, code, buf.String())
		}
		var resp serve.SolveResponse
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			return nil, err
		}
		return resp.X, nil
	}
	var setups []float64
	for k := 0; k < sz.setups; k++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = bootFleet(); err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		if err := f.placePlans(); err != nil {
			return err
		}
		var buf bytes.Buffer
		for ci, class := range httpClasses {
			spec, _ := json.Marshal(serve.PlanSpec{Name: f.names[ci], Class: class, N: sz.n})
			code, err := f.do(http.MethodPost, "/v1/plans", "", spec, &buf)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("%w %d: %s", errStatus, code, buf.String())
			}
			r.count(err)
			if err != nil {
				return fmt.Errorf("register %s: %w", class, err)
			}
		}
		refs = refs[:0]
		for _, class := range httpClasses {
			rp, err := r.buildRef(class, sz.n)
			if err != nil {
				return fmt.Errorf("reference %s: %w", class, err)
			}
			refs = append(refs, rp)
		}
		for ci, class := range httpClasses {
			if k == 0 {
				rng := r.rng("serve-rhs-" + class)
				pools[ci] = make([][]float64, 8)
				for i := range pools[ci] {
					pools[ci][i] = randVec(rng, refs[ci].plan.N())
				}
			}
			err := r.warmCheck(class, refs[ci], pools[ci][0], func(k reqKind, b []float64) ([]float64, error) {
				code, err := solveHTTP(nil, k, encode(ci, k, b), &buf)
				return decodeX(code, err, &buf)
			})
			if err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = median(setups)
	r.logf("setup_s %.4f (median of %d set-ups: %v); plans %v", r.e2e["setup_s"], len(setups), setups, f.names)

	// PCG on the grid3d plan whose preconditioner sweeps are HTTP solves.
	nPCG := max(int(float64(sz.pcgSolves)*r.cfg.seconds/40), 3)
	var pcgBuf bytes.Buffer
	pc := servedPrecond{solve: func(k reqKind, b []float64) ([]float64, error) {
		code, err := solveHTTP(nil, k, encode(0, k, b), &pcgBuf)
		return decodeX(code, err, &pcgBuf)
	}}
	times, iters, _ := r.pcgLoop("pcg", func() *stsk.Plan { return refs[0].plan },
		func() stsk.Preconditioner { return pc }, nPCG, nil)
	d := summarize(times)
	r.e2e["pcg_ms.p50"], r.e2e["pcg_ms.tail"] = d.p50, d.tail
	r.logf("pcg_ms (IC(0) sweeps over HTTP): %d solves, p50 %.3f ms, tail = p%g %.3f ms", d.n, d.p50, d.tailP, d.tail)

	// Pre-encoded request bodies: plan × kind × right-hand side.
	kinds := []reqKind{kindDirect, kindUpper, kindIC0}
	bodies := map[[3]int][]byte{}
	var reqBytes atomic.Int64
	for pi := range httpClasses {
		for ki, k := range kinds {
			for bi, b := range pools[pi] {
				bodies[[3]int{pi, ki, bi}] = encode(pi, k, b)
			}
		}
	}
	orig := [][]float64{refs[0].mat.Values(), refs[1].mat.Values()}
	// Each update changes one plan's values, alternating: update v goes to
	// plan v mod 2, so plan p's values at global version v are those of
	// its last update, planVersion(p, v).
	planVersion := func(p, v int) int {
		for ; v > 0 && v%len(httpClasses) != p; v-- {
		}
		return v
	}
	upd := newUpdater(sz.updateEvery, func(v int) error {
		pi := v % len(httpClasses)
		var buf bytes.Buffer
		body, _ := json.Marshal(serve.UpdateValuesRequest{Values: scaled(orig[pi], valueScale(r.cfg.seed, v))})
		code, err := f.do(http.MethodPut, "/v1/plans/"+f.names[pi]+"/values", "", body, &buf)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("%w %d: %s", errStatus, code, buf.String())
		}
		return err
	})
	mixRng := r.rng("mix")
	type pick struct{ plan, kind, rhs int }
	picks := make([]pick, 1<<16)
	for i := range picks {
		k := 0
		switch u := mixRng.Float64(); {
		case u >= 0.85:
			k = 2
		case u >= 0.70:
			k = 1
		}
		picks[i] = pick{plan: mixRng.Intn(len(httpClasses)), kind: k, rhs: mixRng.Intn(len(pools[0]))}
	}
	smp := &sampler{every: sz.sampleEvery}
	nproc := runtime.GOMAXPROCS(0)
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	var refusedN, attempted, respBytes atomic.Int64
	// Request spans, the client's and the handlers', are recorded in the
	// fixed-rate phases only, like the layer counters below: not in set-up,
	// the PCG loop, or the search's probes past capacity.
	var live atomic.Pointer[recorder]
	live.Store(r.rec)
	f.rec.Store(r.rec)
	issue := func(i int, due time.Time) (outcome, time.Time) {
		p := picks[i%len(picks)]
		k := kinds[p.kind]
		body := bodies[[3]int{p.plan, p.kind, p.rhs}]
		buf := bufs.Get().(*bytes.Buffer)
		defer bufs.Put(buf)
		before := upd.clock.read()
		code, err := solveHTTP(live.Load(), k, body, buf)
		done := time.Now()
		attempted.Add(1)
		reqBytes.Add(int64(len(body)))
		respBytes.Add(int64(buf.Len()))
		switch {
		case err != nil:
			r.logf("solve: %v", err)
			return errored, done
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			refusedN.Add(1)
			return refused, done
		case code != http.StatusOK:
			r.logf("solve: status %d: %.200s", code, buf.String())
			return errored, done
		}
		smp.keep(i, before, upd.clock.read(), sample{plan: p.plan, variant: k.variant, upper: k.upper, rhs: p.rhs},
			func(v int) int { return planVersion(p.plan, v) },
			func() uint64 { return uint64(crc32.Checksum(xText(buf.Bytes()), crcTable)) })
		return succeeded, done
	}
	// The layer counters cover the fixed-rate phases, not the search's
	// probes past capacity.
	rm := f.router.Metrics()
	c0, g0 := readRegCounters(f.regs...), readGoStats()
	h0, fo0, rq0 := rm.Hedges.Load(), rm.Failovers.Load(), rm.Requests.Load()
	var c1 regCounters
	var g1 goStats
	var h1, fo1, rq1, fixedN int64
	lag := r.openLoop(sz.rates, nproc, issue, upd, func() { settleRegistry(f.regs...) }, func() {
		live.Store(nil)
		f.rec.Store(nil)
		c1, g1, fixedN = readRegCounters(f.regs...), readGoStats(), attempted.Load()
		h1, fo1, rq1 = rm.Hedges.Load(), rm.Failovers.Load(), rm.Requests.Load()
		r.layer["serve.reg.refused_frac"] = float64(refusedN.Load()) / float64(max(fixedN, 1))
		r.layer["serve.http.body_kb"] = float64(reqBytes.Load()+respBytes.Load()) / float64(max(fixedN, 1)) / 1024
	})
	for _, err := range upd.errs {
		r.count(err)
	}
	r.attempted += int64(len(upd.times))
	r.e2e["update_ms.p50"] = median(upd.times)
	r.logf("update_ms.p50 %.3f over %d updates (both plans through the router broadcast)", r.e2e["update_ms.p50"], len(upd.times))

	ref := &reference{seed: r.cfg.seed, plans: []*stsk.Plan{refs[0].plan, refs[1].plan}, orig: orig, pools: pools, fp: jsonFingerprint}
	wrong, err := ref.check(smp.samples)
	if err != nil {
		return err
	}
	r.wrongAnswers(wrong, "served HTTP answer differs from the sequential sweep of its value version")
	r.logf("correctness: %d PCG residuals, %d sampled answers checked bit for bit, %d wrong", len(times), len(smp.samples), wrong)

	if r.rec == nil {
		return nil
	}
	r.setupLayers()
	r.krylovLayers(iters)
	r.regLayers(c0, c1)
	// The replica's registry time of each request, by kind, is the
	// durationMs its response reports.
	for _, k := range []string{"direct", "upper", "ic0"} {
		var v []float64
		for _, s := range r.rec.byName("client." + k) {
			v = append(v, s.Attr)
		}
		r.layer["serve.reg.solve_ms.p50."+k] = median(v)
	}
	// The replicas call Registry.UpdateValues inside their handlers, which
	// the benchmark does not wrap; update_ms.p50 times the whole broadcast.
	r.layer["serve.reg.update_ms.p50"] = 0
	r.layer["go.alloc_kb_per_op"], r.layer["go.gc_cpu_frac"] = goDelta(g0, g1, fixedN)
	r.layer["load.gen_lag_ms.max"] = ms(lag)
	r.httpLayers()
	if rq := rq1 - rq0; rq > 0 {
		r.layer["serve.router.hedge_frac"] = float64(h1-h0) / float64(rq)
	}
	r.layer["serve.router.failovers"] = float64(fo1 - fo0)
	r.solverLayers(refs[0].plan)
	var obuf bytes.Buffer
	body := bodies[[3]int{0, 0, 0}]
	r.layer["trace.overhead_pct"] = overheadPct(func(rec *recorder) {
		f.rec.Store(rec)
		for i := 0; i < 15; i++ {
			if code, err := solveHTTP(rec, kindDirect, body, &obuf); err != nil || code != http.StatusOK {
				r.count(fmt.Errorf("overhead solve: status %d: %v", code, err))
			}
		}
	})
	return nil
}

// httpLayers fills serve.http.* and serve.router.* from the spans: the
// replica's ServeHTTP, the router's ServeHTTP, and the registry time each
// response reports, linked by trace id.
func (r *run) httpLayers() {
	regMs := map[string]float64{}
	for _, k := range []string{"direct", "upper", "ic0"} {
		for _, s := range r.rec.byName("client." + k) {
			regMs[s.ID] = s.Attr
		}
	}
	perID := map[string][]span{}
	for _, s := range r.rec.byName("serve.http") {
		perID[s.ID] = append(perID[s.ID], s)
	}
	var server, self []float64
	for id, ss := range perID {
		reg, ok := regMs[id]
		if !ok || len(ss) != 1 { // hedged requests have no single replica span
			continue
		}
		d := float64(ss[0].End-ss[0].Start) / 1e6
		server = append(server, d)
		self = append(self, d-reg)
	}
	r.layer["serve.http.server_ms.p50"] = median(server)
	r.layer["serve.http.self_ms.p50"] = median(self)
	r.layer["serve.router.ms.p50"] = median(r.rec.durationsMs("serve.router"))
	r.layer["serve.router.self_ms.p50"] = median(r.rec.selfMs("serve.router", "serve.http"))
}
