package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/task"
)

// PlannerBench freezes a mid-run planner state so benchmarks and tests
// can drive the placement searches directly, outside the event loop: a
// runner whose profiler has seen every (kind, object) pair and whose
// first third of tasks is bookkeeping-started. The tests add the
// retained reference planner's twins (plan_ref_test.go) on the same
// state, so their ratio is the optimization's honest speedup.
type PlannerBench struct {
	r        *runner
	nextKind int32
}

// NewPlannerBench builds the frozen state for a profiling policy
// (Tahoe or PhaseBased) configuration.
func NewPlannerBench(g *task.Graph, cfg Config) (*PlannerBench, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, g: g}
	if err := r.setup(); err != nil {
		return nil, err
	}
	if r.pt == nil {
		return nil, fmt.Errorf("core: policy %s does not plan", cfg.Policy)
	}
	pb := &PlannerBench{r: r}
	// Feed the profiler one observation per task, exactly as complete()
	// would, so every pair has an estimate and every kind a mean.
	for _, t := range g.Tasks {
		d := model.TaskDemand(t, r.machineHMS(), r.dramFrac)
		r.recordProfile(t, d.TotalSec(), d)
	}
	// Advance the frontier past the first third of the graph.
	for _, t := range g.Tasks[:len(g.Tasks)/3] {
		r.markStarted(t)
	}
	return pb, nil
}

// perturb invalidates one kind's cached estimates, round-robin — the
// state a drift re-profile leaves behind, and the Δ a replan refreshes.
func (pb *PlannerBench) perturb() {
	p := pb.r.pt
	p.invalidateKind(pb.nextKind)
	pb.nextKind = (pb.nextKind + 1) % int32(p.nk)
}

// Global runs the optimized global search once.
func (pb *PlannerBench) Global() float64 {
	return pb.r.computeGlobalPlan(pb.r.futureTasks()).predicted
}

// Local runs the optimized local search once.
func (pb *PlannerBench) Local() float64 {
	return pb.r.computeLocalPlan(pb.r.futureTasks()).predicted
}

// Replan models one workload-variation replan: a kind's estimates went
// stale, and the runtime reruns the two-tier searches and takes the
// winner.
func (pb *PlannerBench) Replan() float64 {
	pb.perturb()
	best, _ := pb.r.twoTierPlan(pb.r.futureTasks())
	return best.predicted
}
