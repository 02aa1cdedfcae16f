package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/workloads"
)

// loopResult is what one measured load produced.
type loopResult struct {
	lat     []float64 // per-op latency in ms
	allocMB float64   // heap bytes allocated while measuring, in MB
	cpuMS   float64   // process CPU time (user + system) while measuring
	// tasks is the simulated tasks the load completed in wall: of every
	// op that succeeded for a closed loop, of the nominal phase's
	// correct responses within the latency limit for the open loop.
	tasks     int64
	wall      time.Duration
	attempted int
	failed    int
	// rate is the ops per second the load sustained: completed ops per
	// second for a closed loop, the service's capacity under overload
	// for the open loop.
	rate float64
	// layer holds per-layer metrics observed during the load itself.
	layer map[string]float64
	// notes are workload-specific readings printed beside the metrics.
	notes []string
}

// closedLoop runs op back to back on the calling goroutine for at least
// one op and until d has passed.
func closedLoop(d time.Duration, op func(i int64) (tasks int, err error)) loopResult {
	var lr loopResult
	before := takeUsage()
	start := time.Now()
	for i := int64(0); i == 0 || time.Since(start) < d; i++ {
		t0 := time.Now()
		n, err := op(i)
		lr.lat = append(lr.lat, ms(time.Since(t0)))
		lr.attempted++
		if err != nil {
			lr.failed++
			logf("op %d: %v", i, err)
			continue
		}
		lr.tasks += int64(n)
	}
	lr.wall = time.Since(start)
	lr.rate = float64(lr.attempted) / lr.wall.Seconds()
	lr.allocMB, lr.cpuMS = before.since()
	return lr
}

// usage is a snapshot of the process's allocation and CPU counters.
type usage struct {
	alloc uint64
	cpu   time.Duration
}

func takeUsage() usage {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		logf("getrusage: %v", err)
	}
	return usage{alloc: mem.TotalAlloc, cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// since returns the MB allocated and the CPU milliseconds used since u.
func (u usage) since() (allocMB, cpuMS float64) {
	now := takeUsage()
	return float64(now.alloc-u.alloc) / 1e6, ms(now.cpu - u.cpu)
}

// planScale runs core.Run back to back under tahoe on three planner
// instances; one op is one run of each, in a seeded order.
type planScale struct {
	env    env
	rng    *rand.Rand
	graphs []*task.Graph
	runMS  [][]float64 // per instance, the timed runs' wall times
}

var planInstances = []instance{
	{"chol32", "cholesky", 32},
	{"chol64", "cholesky", 64},
	{"slu32", "sparselu", 32},
}

func setupPlanScale(seed int64, _ []time.Duration, rec *recorder) (bench, error) {
	e, err := newEnv(rec)
	if err != nil {
		return nil, err
	}
	b := &planScale{env: e, rng: rand.New(rand.NewSource(seed))}
	for _, in := range planInstances {
		g, err := in.build(rec, 0, 0)
		if err != nil {
			return nil, err
		}
		b.graphs = append(b.graphs, g)
	}
	return b, nil
}

// op runs each instance once, in a seeded order, checking its outputs.
func (b *planScale) op(i int64, rec *recorder) (int, error) {
	opSpan := rec.begin("op", 0, i)
	defer rec.end(opSpan)
	cfg := b.env.config(core.Tahoe)
	tasks := 0
	for _, k := range b.rng.Perm(len(b.graphs)) {
		var res core.Result
		var err error
		d := rec.timed("core.Run", opSpan, i, func() { res, err = core.Run(b.graphs[k], cfg) })
		if err != nil {
			return tasks, fmt.Errorf("%s: %w", planInstances[k].label, err)
		}
		if i >= 0 {
			b.runMS[k] = append(b.runMS[k], ms(d))
		}
		if err := checkPin(pins, pinKey(planInstances[k].label, core.Tahoe), res); err != nil {
			return tasks, err
		}
		tasks += res.Tasks
	}
	return tasks, nil
}

// measure times the closed loop after one untimed (but checked) warm-up
// op, which lets the heap grow to its working size first.
func (b *planScale) measure(d time.Duration, rec *recorder) (loopResult, error) {
	if _, err := b.op(-1, nil); err != nil {
		return loopResult{attempted: 1, failed: 1}, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	b.runMS = make([][]float64, len(b.graphs))
	lr := closedLoop(d, func(i int64) (int, error) { return b.op(i, rec) })
	// Per-instance run times, and how host time per task grows from
	// cholesky@32 to cholesky@64 (1 = linear in tasks).
	line := "runs:"
	for k, in := range planInstances {
		line += fmt.Sprintf(" %s p50 %.6g ms (n=%d);", in.label, median(b.runMS[k]), len(b.runMS[k]))
	}
	perTask := func(k int) float64 { return median(b.runMS[k]) / float64(len(b.graphs[k].Tasks)) }
	lr.notes = append(lr.notes, line, fmt.Sprintf("scaling ratio (ns/task chol64 / chol32): %.4g", perTask(1)/perTask(0)))
	return lr, nil
}

func (b *planScale) layers(rec *recorder) (map[string]float64, error) {
	m, err := probeLayers(b.env, planInstances, rec)
	if err != nil {
		return nil, err
	}
	// The service layer sees the smallest planner instance.
	return m, probeServe(b.env, []requestTemplate{{workload: "sparselu", scale: 32, policy: "tahoe"}}, 2, rec, m)
}

func (b *planScale) close() {}

// baselinePolicies never profile or plan.
var baselinePolicies = []core.Policy{core.NVMOnly, core.FirstTouch, core.XMem, core.HWCache}

// baselineNames are the same policies as the service names them.
var baselineNames = []string{"nvm", "firsttouch", "xmem", "hwcache"}

// baselineGrid builds every application workload at its default scale
// and runs it under each baseline policy; one op is one such sweep, apps
// and policies in a seeded order.
type baselineGrid struct {
	env  env
	rng  *rand.Rand
	apps []workloads.Spec
}

func setupBaselineGrid(seed int64, _ []time.Duration, rec *recorder) (bench, error) {
	e, err := newEnv(rec)
	if err != nil {
		return nil, err
	}
	b := &baselineGrid{env: e, rng: rand.New(rand.NewSource(seed)), apps: workloads.Apps()}
	// Warm-up sweeps, in their own order, so lazy start-up work is done
	// before timing. Three of them make set-up long enough to time
	// steadily.
	warm := &baselineGrid{env: e, rng: rand.New(rand.NewSource(^seed)), apps: b.apps}
	for i := int64(1); i <= 3; i++ {
		if _, err := warm.sweep(-i, rec, pins); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

// sweep is one baseline-grid op; pins is a parameter so tests can hand
// it a wrong table.
func (b *baselineGrid) sweep(i int64, rec *recorder, pins map[string]pin) (int, error) {
	opSpan := rec.begin("op", 0, i)
	defer rec.end(opSpan)
	tasks := 0
	for _, a := range b.rng.Perm(len(b.apps)) {
		in := instance{label: b.apps[a].Name, workload: b.apps[a].Name}
		g, err := in.build(rec, opSpan, i)
		if err != nil {
			return tasks, err
		}
		for _, p := range b.rng.Perm(len(baselinePolicies)) {
			pol := baselinePolicies[p]
			var res core.Result
			rec.timed("core.Run", opSpan, i, func() { res, err = core.Run(g, b.env.config(pol)) })
			if err != nil {
				return tasks, fmt.Errorf("%s: %w", pinKey(in.label, pol), err)
			}
			if err := checkPin(pins, pinKey(in.label, pol), res); err != nil {
				return tasks, err
			}
			tasks += res.Tasks
		}
	}
	return tasks, nil
}

func (b *baselineGrid) measure(d time.Duration, rec *recorder) (loopResult, error) {
	return closedLoop(d, func(i int64) (int, error) { return b.sweep(i, rec, pins) }), nil
}

func (b *baselineGrid) layers(rec *recorder) (map[string]float64, error) {
	var ins []instance
	var tmpl []requestTemplate
	for i, a := range b.apps {
		ins = append(ins, instance{label: a.Name, workload: a.Name})
		tmpl = append(tmpl, requestTemplate{workload: a.Name, policy: baselineNames[i%len(baselineNames)]})
	}
	m, err := probeLayers(b.env, ins, rec)
	if err != nil {
		return nil, err
	}
	return m, probeServe(b.env, tmpl, 1, rec, m)
}

func (b *baselineGrid) close() {}

// pinnedRuns lists every pinned (instance, policy) pair of the closed
// loops, for --pins.
func pinnedRuns() (map[string]pin, error) {
	e, err := newEnv(nil)
	if err != nil {
		return nil, err
	}
	out := map[string]pin{}
	add := func(in instance, p core.Policy) error {
		g, err := in.build(nil, 0, 0)
		if err != nil {
			return err
		}
		res, err := core.Run(g, e.config(p))
		if err != nil {
			return fmt.Errorf("%s: %w", pinKey(in.label, p), err)
		}
		out[pinKey(in.label, p)] = pinOf(res)
		return nil
	}
	for _, in := range planInstances {
		if err := add(in, core.Tahoe); err != nil {
			return nil, err
		}
	}
	for _, a := range workloads.Apps() {
		for _, p := range baselinePolicies {
			if err := add(instance{label: a.Name, workload: a.Name}, p); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
