package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calib"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Request classes of the service mix.
const (
	classPlain    = "plain"
	classTraced   = "traced"
	classFaults   = "faults"
	classFeedback = "feedback"
	classInline   = "inline"
)

var classes = []string{classPlain, classTraced, classFaults, classFeedback, classInline}

// request is one scheduled service request with the outputs a direct
// core.Run of the same request produced.
type request struct {
	due   time.Duration // since the phase started
	class string
	body  []byte
	want  expected
}

// expected is what the response must report.
type expected struct {
	bits     uint64
	tasks    int
	migr     int
	replans  int
	planKind string
	sha      string // trace SHA-256, traced requests only
}

// outcome is what one request got.
type outcome struct {
	sent, done time.Duration // since the phase started
	late       time.Duration // generator oversleep; -1 when it never slept
	status     int
	resp       serve.RunResponse
	err        error
}

// latency is the request's time from when it was due.
func (o outcome) latency(r request) time.Duration { return o.done - r.due }

// check compares a response with the direct run.
func (o outcome) check(r request) error {
	switch {
	case o.err != nil:
		return o.err
	case o.status != http.StatusOK:
		return fmt.Errorf("HTTP %d", o.status)
	case o.resp.Error != "":
		return fmt.Errorf("run error: %s", o.resp.Error)
	}
	got := expected{
		bits: math.Float64bits(o.resp.TimeSec), tasks: o.resp.Tasks, migr: o.resp.Migrations,
		replans: o.resp.Replans, planKind: o.resp.PlanKind, sha: o.resp.TraceSHA256,
	}
	if got != r.want {
		return fmt.Errorf("%s %s: response %+v, direct run %+v", r.class, o.resp.Workload, got, r.want)
	}
	return nil
}

// harness is an in-process serve.Server behind net/http on loopback,
// with a keep-alive client limited to conns connections.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	client *http.Client
	url    string
	conns  int
	served chan error
}

func startHarness(workers, conns int, cache *calib.Cache) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		srv:    serve.New(serve.Config{Workers: workers, Calib: cache}),
		url:    "http://" + ln.Addr().String(),
		conns:  conns,
		served: make(chan error, 1),
		client: &http.Client{
			// A request that takes this long has failed; the run must end.
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	h.hs = &http.Server{Handler: h.srv}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the HTTP server and the worker pool and waits for both.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.hs.Shutdown(ctx); err != nil {
		logf("http shutdown: %v", err)
	}
	<-h.served
	h.client.CloseIdleConnections()
	if err := h.srv.Close(); err != nil {
		logf("serve close: %v", err)
	}
}

// post sends one run request.
func (h *harness) post(body []byte) (int, serve.RunResponse, error) {
	var out serve.RunResponse
	resp, err := h.client.Post(h.url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, out, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &out)
	}
	return resp.StatusCode, out, err
}

// stats reads GET /v1/stats.
func (h *harness) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := h.client.Get(h.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// openLoop sends every request at its due time, measured from now, over
// at most h.conns connections: each sender takes the next request in
// due order, sleeps until it is due and waits for the response. When
// every connection is busy, requests wait in due order and their
// latency, timed from the due time, includes that wait.
func (h *harness) openLoop(reqs []request, rec *recorder, op0 int64) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < h.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &out[i]
				o.late = -1
				if wait := reqs[i].due - time.Since(start); wait > 0 {
					time.Sleep(wait)
					o.late = time.Since(start) - reqs[i].due
				}
				o.sent = time.Since(start)
				sp := rec.begin("serve.POST /v1/run", 0, op0+int64(i))
				o.status, o.resp, o.err = h.post(reqs[i].body)
				rec.end(sp)
				o.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// direct computes what the service must answer for req, by running the
// same request through core.Run the way the service configures it, and
// returns the run's wall time too.
func direct(e env, req *serve.RunRequest) (want expected, wall time.Duration, err error) {
	cfg := e.config(core.Tahoe)
	if req.Policy != "" {
		if cfg.Policy, err = core.PolicyByName(req.Policy); err != nil {
			return want, 0, err
		}
	}
	if cfg.Faults, err = fault.ParseSpec(req.Faults); err != nil {
		return want, 0, err
	}
	if cfg.Feedback, err = cliutil.ParseFeedback(req.Feedback, feedback.Config{}); err != nil {
		return want, 0, err
	}
	var g *task.Graph
	if req.Graph != nil {
		g = buildInline(req.Graph)
	} else {
		spec, err := workloads.ByName(req.Workload)
		if err != nil {
			return want, 0, err
		}
		g = spec.Build(workloads.Params{Scale: req.Scale}).Graph
	}
	var tr trace.Trace
	if req.Trace {
		cfg.Trace = &tr
	}
	t0 := time.Now()
	res, err := core.Run(g, cfg)
	wall = time.Since(t0)
	if err != nil {
		return want, wall, err
	}
	want.bits = math.Float64bits(res.Time)
	want.tasks, want.migr, want.replans, want.planKind = res.Tasks, res.Migration.Migrations, res.Replans, res.PlanKind
	if req.Trace {
		sum := sha256.New()
		if err := tr.WriteJSONL(sum); err != nil {
			return want, wall, err
		}
		want.sha = hex.EncodeToString(sum.Sum(nil))
	}
	return want, wall, nil
}

// buildInline builds an inline graph exactly as the service does.
func buildInline(gs *serve.GraphSpec) *task.Graph {
	name := gs.Name
	if name == "" {
		name = "inline"
	}
	b := task.NewBuilder(name)
	ids := make([]task.ObjectID, len(gs.Objects))
	for i, o := range gs.Objects {
		oname := o.Name
		if oname == "" {
			oname = fmt.Sprintf("o%d", i)
		}
		ids[i] = b.ObjectOpt(oname, o.Size, !o.NoChunk)
	}
	for _, t := range gs.Tasks {
		accs := make([]task.Access, len(t.Accesses))
		for ai, a := range t.Accesses {
			mlp := a.MLP
			if mlp == 0 {
				mlp = 1
			}
			accs[ai] = task.Access{Obj: ids[a.Obj], Mode: modes[a.Mode], Loads: a.Loads, Stores: a.Stores, MLP: mlp}
		}
		b.Submit(t.Kind, t.CPUSec, accs, nil)
	}
	return b.Build()
}

var modes = map[string]task.AccessMode{"in": task.In, "out": task.Out, "inout": task.InOut}

// specOf expresses a graph as an inline request graph.
func specOf(g *task.Graph) *serve.GraphSpec {
	gs := &serve.GraphSpec{Name: g.Name}
	for _, o := range g.Objects {
		gs.Objects = append(gs.Objects, serve.ObjectSpec{Name: o.Name, Size: o.Size, NoChunk: !o.Chunkable})
	}
	for _, t := range g.Tasks {
		ts := serve.TaskSpec{Kind: t.Kind, CPUSec: t.CPUSec}
		for _, a := range t.Accesses {
			ts.Accesses = append(ts.Accesses, serve.AccessSpec{
				Obj: int(a.Obj), Mode: a.Mode.String(), Loads: a.Loads, Stores: a.Stores, MLP: a.MLP,
			})
		}
		gs.Tasks = append(gs.Tasks, ts)
	}
	return gs
}

// serveLayers derives the service layer's metrics from one phase's
// outcomes and the server's counters.
func serveLayers(reqs []request, outs []outcome, st serve.Stats, m map[string]float64) {
	var wait, run, httpMS, late []float64
	byClass := map[string][]float64{}
	for i, o := range outs {
		if o.late >= 0 {
			late = append(late, ms(o.late))
		}
		if o.check(reqs[i]) != nil {
			continue
		}
		wait = append(wait, o.resp.WaitMS)
		run = append(run, o.resp.RunMS)
		httpMS = append(httpMS, ms(o.done-o.sent)-o.resp.WaitMS-o.resp.RunMS)
		byClass[reqs[i].class] = append(byClass[reqs[i].class], o.resp.RunMS)
	}
	m["serve.wait_ms_p50"] = median(wait)
	m["serve.wait_ms_p99"] = percentile(wait, 99)
	m["serve.run_ms_p50"] = median(run)
	m["serve.run_ms_p99"] = percentile(run, 99)
	m["serve.http_ms_p50"] = median(httpMS)
	for _, c := range classes {
		m["serve.run_ms_p50."+c] = median(byClass[c])
	}
	m["gen.late_ms_p99"] = percentile(late, 99)
	m["serve.shed_ratio"] = ratio(float64(st.Shed), float64(st.Accepted+st.Shed))
	m["serve.degraded_ratio"] = ratio(float64(st.Degraded), float64(st.Completed))
	m["serve.max_queue"] = float64(st.MaxQueue)
}

// requestTemplate is a registered-workload request the service probe
// sends in every class.
type requestTemplate struct {
	workload string
	scale    int
	policy   string
}

// classRequest makes the request of one class from a template; seed
// picks the fault schedule.
func (t requestTemplate) classRequest(class, tenant string, seed int) serve.RunRequest {
	req := serve.RunRequest{Tenant: tenant, Workload: t.workload, Scale: t.scale, Policy: t.policy}
	switch class {
	case classTraced:
		req.Trace = true
	case classFaults:
		req.Faults = fmt.Sprintf("rate=120,seed=%d,horizon=1", seed)
	case classFeedback:
		req.Feedback = "on"
	}
	return req
}

// probeServe sends every template in every class, reps times, through a
// fresh service at a spacing that keeps the server idle between
// requests, checks each response against a direct run, and fills the
// serve.* metrics. Inline requests carry the template's graph inline.
func probeServe(e env, tmpl []requestTemplate, reps int, rec *recorder, m map[string]float64) error {
	cache := &calib.Cache{}
	cache.Factors(e.hms, prof.DefaultConfig())
	h, err := startHarness(nproc(), nproc(), cache)
	if err != nil {
		return err
	}
	defer h.close()
	var reqs []request
	var due time.Duration
	for r := 0; r < reps; r++ {
		for ti, t := range tmpl {
			for _, c := range classes {
				req := t.classRequest(c, fmt.Sprintf("tenant-%02d", ti%16), 1+r)
				if c == classInline {
					spec, err := workloads.ByName(t.workload)
					if err != nil {
						return err
					}
					req.Workload, req.Scale = "", 0
					req.Graph = specOf(spec.Build(workloads.Params{Scale: t.scale}).Graph)
				}
				want, wall, err := direct(e, &req)
				if err != nil {
					return fmt.Errorf("direct run: %w", err)
				}
				body, err := json.Marshal(&req)
				if err != nil {
					return err
				}
				reqs = append(reqs, request{due: due, class: c, body: body, want: want})
				due += 2*wall + time.Millisecond
			}
		}
	}
	sp := rec.begin("probe.serve", 0, 0)
	outs := h.openLoop(reqs, rec, 0)
	rec.end(sp)
	for i, o := range outs {
		if err := o.check(reqs[i]); err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
	}
	st, err := h.stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	serveLayers(reqs, outs, st, m)
	return nil
}
