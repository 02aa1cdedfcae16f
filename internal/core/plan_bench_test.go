package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/workloads"
)

// Reference-planner micro-benchmarks: the twins of the root package's
// BenchmarkPlannerGlobal/Local/Replan on the same frozen mid-run state,
// so the optimized/Ref ratio is the planner optimization's honest
// speedup. They are not gated.
func refPlannerBench(b *testing.B) *PlannerBench {
	b.Helper()
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB)
	s, err := workloads.ByName("cholesky")
	if err != nil {
		b.Fatal(err)
	}
	pb, err := NewPlannerBench(s.Build(workloads.Params{}).Graph, DefaultConfig(h))
	if err != nil {
		b.Fatal(err)
	}
	// Warm the benefit and knapsack caches, as the root benchmarks do.
	pb.Global()
	pb.Local()
	return pb
}

func BenchmarkPlannerGlobalRef(b *testing.B) {
	pb := refPlannerBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.RefGlobal()
	}
}

func BenchmarkPlannerLocalRef(b *testing.B) {
	pb := refPlannerBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.RefLocal()
	}
}

func BenchmarkPlannerReplanRef(b *testing.B) {
	pb := refPlannerBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.RefReplan()
	}
}
