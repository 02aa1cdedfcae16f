package main

import (
	"fmt"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/migrate"
	"repro/internal/placement"
	"repro/internal/prof"
	"repro/internal/task"
	"repro/internal/trace"
)

// probeLayers measures every layer below the service from outside, on
// the workload's own instances, by timing calls into each layer's
// public functions. Each layer's calls sit under a "probe.<layer>" span.
func probeLayers(e env, ins []instance, rec *recorder) (map[string]float64, error) {
	m := map[string]float64{}

	// workloads / task: graph build.
	var graphs []*task.Graph
	var build time.Duration
	sp := rec.begin("probe.workloads", 0, 0)
	for _, in := range ins {
		t0 := time.Now()
		g, err := in.build(rec, sp, 0)
		if err != nil {
			return nil, err
		}
		build += time.Since(t0)
		graphs = append(graphs, g)
		m["task.tasks"] += float64(len(g.Tasks))
		m["task.objects"] += float64(len(g.Objects))
	}
	rec.end(sp)
	m["workloads.build_ms"] = ms(build)

	// calib: cold calibration, then warm cache lookups.
	sp = rec.begin("probe.calib", 0, 0)
	var cold []float64
	for i := 0; i < 5; i++ {
		var err error
		d := rec.timed("calib.Calibrate", sp, 0, func() { _, err = calib.Calibrate(e.hms, prof.DefaultConfig()) })
		if err != nil {
			return nil, fmt.Errorf("calibrate: %w", err)
		}
		cold = append(cold, ms(d))
	}
	m["calib.calibrate_ms"] = median(cold)
	cache := &calib.Cache{}
	cache.Factors(e.hms, prof.DefaultConfig())
	const lookups = 2000
	d := rec.timed("calib.Cache.Factors", sp, 0, func() {
		for i := 0; i < lookups; i++ {
			cache.Factors(e.hms, prof.DefaultConfig())
		}
	})
	m["calib.factors_us"] = d.Seconds() * 1e6 / lookups
	rec.end(sp)

	// core planner: one global, local and replan search on a frozen
	// mid-run state of each graph.
	sp = rec.begin("probe.core.plan", 0, 0)
	var global, local, replan time.Duration
	for _, g := range graphs {
		pb, err := core.NewPlannerBench(g, e.config(core.Tahoe))
		if err != nil {
			return nil, fmt.Errorf("planner bench %s: %w", g.Name, err)
		}
		global += rec.timed("core.PlannerBench.Global", sp, 0, func() { pb.Global() })
		local += rec.timed("core.PlannerBench.Local", sp, 0, func() { pb.Local() })
		replan += rec.timed("core.PlannerBench.Replan", sp, 0, func() { pb.Replan() })
	}
	rec.end(sp)
	m["core.plan_global_ms"] = ms(global)
	m["core.plan_local_ms"] = ms(local)
	m["core.plan_replan_ms"] = ms(replan)

	// placement: a knapsack per task over the objects it touches,
	// weighted by the graph's whole traffic to each, as the local search
	// poses them.
	sp = rec.begin("probe.placement", 0, 0)
	solver := placement.NewSolver()
	var solve time.Duration
	solves := 0
	for _, g := range graphs {
		traffic := g.ObjectTraffic()
		var items []placement.Item
		for _, t := range g.Tasks {
			items = items[:0]
			for _, a := range t.Accesses {
				tr := traffic[a.Obj]
				items = append(items, placement.Item{Size: g.Object(a.Obj).Size, Weight: float64(tr.Loads + tr.Stores)})
			}
			t0 := time.Now()
			solver.Solve(items, e.hms.DRAMCapacity, placement.DefaultGranularity)
			solve += time.Since(t0)
			solves++
		}
	}
	rec.end(sp)
	m["placement.solve_us"] = solve.Seconds() * 1e6 / float64(solves)
	m["placement.memo_hit_ratio"] = ratio(float64(solver.Hits), float64(solver.Hits+solver.Misses))

	// prof: one Record per task, each access an equal share of the time.
	sp = rec.begin("probe.prof", 0, 0)
	var record time.Duration
	records := 0
	for _, g := range graphs {
		p := prof.New(prof.DefaultConfig())
		execs := make([]prof.Exec, len(g.Tasks))
		for i, t := range g.Tasks {
			obs := make([]prof.AccessObs, len(t.Accesses))
			for j, a := range t.Accesses {
				obs[j] = prof.AccessObs{Obj: a.Obj, Loads: a.Loads, Stores: a.Stores, Size: g.Object(a.Obj).Size, TimeShare: 1 / float64(len(t.Accesses))}
			}
			execs[i] = prof.Exec{TaskID: t.ID, Kind: t.Kind, Duration: t.CPUSec, Obs: obs}
		}
		record += rec.timed("prof.Profiler.Record", sp, 0, func() {
			for _, x := range execs {
				p.Record(x)
			}
		})
		records += len(execs)
	}
	rec.end(sp)
	m["prof.record_ns"] = float64(record.Nanoseconds()) / float64(records)

	// core runs: the substrate floor (nvm-only), the full runtime, and
	// the same run traced; tracing must not change the outputs. Short
	// runs are timed three times and the median kept.
	sp = rec.begin("probe.core.run", 0, 0)
	timeRun := func(name string, fn func() error) (time.Duration, error) {
		var ds []float64
		for i := 0; i < 3; i++ {
			var err error
			d := rec.timed(name, sp, 0, func() { err = fn() })
			if err != nil {
				return 0, err
			}
			ds = append(ds, float64(d))
			if d > 300*time.Millisecond {
				break
			}
		}
		return time.Duration(median(ds)), nil
	}
	var floor, tahoe, traced, write time.Duration
	var mig migrate.Stats
	for _, g := range graphs {
		d, err := timeRun("core.Run nvm-only", func() (err error) { _, err = core.Run(g, e.config(core.NVMOnly)); return })
		if err != nil {
			return nil, fmt.Errorf("%s nvm-only: %w", g.Name, err)
		}
		floor += d
		var plain, withTrace core.Result
		d, err = timeRun("core.Run tahoe", func() (err error) { plain, err = core.Run(g, e.config(core.Tahoe)); return })
		if err != nil {
			return nil, fmt.Errorf("%s tahoe: %w", g.Name, err)
		}
		tahoe += d
		cfg := e.config(core.Tahoe)
		tr := &trace.Trace{}
		cfg.Trace = tr
		d, err = timeRun("core.Run tahoe traced", func() (err error) {
			tr.Reset()
			withTrace, err = core.Run(g, cfg)
			return
		})
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", g.Name, err)
		}
		traced += d
		if pinOf(withTrace) != pinOf(plain) {
			return nil, fmt.Errorf("%s: traced run %+v differs from untraced %+v", g.Name, pinOf(withTrace), pinOf(plain))
		}
		var cw countingWriter
		write += rec.timed("trace.Trace.WriteJSONL", sp, 0, func() { err = tr.WriteJSONL(&cw) })
		if err != nil {
			return nil, fmt.Errorf("%s trace: %w", g.Name, err)
		}
		m["trace.events"] += float64(tr.Len())
		m["trace.bytes"] += float64(cw.n)
		m["core.replans"] += float64(plain.Replans)
		m["prof.samples"] += plain.ProfileSamples
		s := plain.Migration
		mig.Migrations += s.Migrations
		mig.BytesMoved += s.BytesMoved
		mig.Dropped += s.Dropped
		mig.MoveFailed += s.MoveFailed
		mig.Abandoned += s.Abandoned
		mig.CopySec += s.CopySec
		mig.ExposedSec += s.ExposedSec
	}
	rec.end(sp)
	m["core.run_floor_ms"] = ms(floor)
	m["core.runtime_ms"] = ms(tahoe - floor)
	m["trace.write_jsonl_ms"] = ms(write)
	m["trace.record_overhead_ms"] = ms(traced - tahoe)
	m["migrate.migrations"] = float64(mig.Migrations)
	m["migrate.bytes_mb"] = float64(mig.BytesMoved) / 1e6
	m["migrate.failed"] = float64(mig.Failed())
	m["migrate.overlap_frac"] = mig.OverlapFraction()
	return m, nil
}

// countingWriter counts the bytes written to it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
