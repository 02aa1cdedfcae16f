package main

import (
	"fmt"

	"repro/internal/calib"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/task"
	"repro/internal/workloads"
)

// env is the simulated machine every workload runs on: the default
// 128 MB DRAM + half-bandwidth NVM machine with freshly calibrated
// CF_bw/CF_lat.
type env struct {
	machine cliutil.MachineSpec
	hms     mem.HMS
	factors calib.Factors
}

// newEnv builds the machine and calibrates it cold.
func newEnv(rec *recorder) (env, error) {
	var e env
	var err error
	if e.hms, err = e.machine.Build(); err != nil {
		return e, fmt.Errorf("machine: %w", err)
	}
	rec.timed("calib.Calibrate", 0, 0, func() { e.factors, err = calib.Calibrate(e.hms, prof.DefaultConfig()) })
	if err != nil {
		return e, fmt.Errorf("calibrate: %w", err)
	}
	return e, nil
}

// config is the run configuration a caller of core.Run would use.
func (e env) config(p core.Policy) core.Config {
	cfg := core.DefaultConfig(e.hms)
	cfg.Policy = p
	cfg.CFBw, cfg.CFLat = e.factors.CFBw, e.factors.CFLat
	return cfg
}

// instance names one workload graph: a registered workload at a scale
// (0 = the workload's default).
type instance struct {
	label    string
	workload string
	scale    int
}

// build constructs the instance's graph inside a workloads.Build span.
func (in instance) build(rec *recorder, parent, op int64) (*task.Graph, error) {
	spec, err := workloads.ByName(in.workload)
	if err != nil {
		return nil, err
	}
	var g *task.Graph
	rec.timed("workloads.Build", parent, op, func() { g = spec.Build(workloads.Params{Scale: in.scale}).Graph })
	return g, nil
}

// pinKey names one pinned (instance, policy) run.
func pinKey(label string, p core.Policy) string { return label + "/" + p.String() }

// checkPin compares a run's simulated outputs with the pinned ones.
func checkPin(pins map[string]pin, key string, res core.Result) error {
	want, ok := pins[key]
	if !ok {
		return fmt.Errorf("%s: no pinned outputs", key)
	}
	if got := pinOf(res); got != want {
		return fmt.Errorf("%s: outputs %+v, pinned %+v", key, got, want)
	}
	return nil
}
