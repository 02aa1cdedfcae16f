package heap_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/task"
	"repro/internal/trace"
)

// This file enforces the struct-of-arrays heap layout's correctness
// contract (see state.go and state_ref_test.go): with
// heap.SetShadowCheck on, every NewState and every Move is replayed
// through the retained reference (array-of-structs) layout and all
// observable state — free-list accounting, per-chunk tier and pieces,
// per-object residency tables — is compared exactly; any divergence
// fails the run. On top of that internal pin, the soup below asserts
// the hook itself is inert: a shadow-checked run produces the same
// Result, bit for bit, and the byte-identical trace of an unchecked
// run, across all six policies and both tier counts.

// TestHeapLayoutEquivalence runs a randomized workload soup under every
// policy on 2-tier and 3-tier machines, once plainly and once under
// heap.SetShadowCheck, comparing Float64bits makespans, full Results,
// and WriteJSONL trace bytes. Not parallel: the shadow hook is a global.
func TestHeapLayoutEquivalence(t *testing.T) {
	defer heap.SetShadowCheck(false)

	policies := []core.Policy{core.NVMOnly, core.FirstTouch, core.XMem, core.HWCache, core.PhaseBased, core.Tahoe}
	run := func(name string, g *task.Graph, cfg core.Config, shadow bool) (core.Result, string) {
		t.Helper()
		heap.SetShadowCheck(shadow)
		tr := &trace.Trace{}
		cfg.Trace = tr
		res, err := core.Run(g, cfg)
		if err != nil {
			t.Fatalf("%s shadow=%v: %v", name, shadow, err)
		}
		var buf strings.Builder
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}

	scenarios := 0
	for seed := int64(1); seed <= 4; seed++ {
		g := equivGraph(seed)
		for _, tiers := range []int{2, 3} {
			var h mem.HMS
			if tiers == 3 {
				h = mem.DRAMCXLNVM(24*mem.MB, 16*mem.MB)
			} else {
				h = mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 32*mem.MB)
			}
			for _, pol := range policies {
				cfg := core.DefaultConfig(h)
				cfg.Policy = pol
				cfg.Workers = int(seed%3) + 1
				name := fmt.Sprintf("seed%d-%dt-%s", seed, tiers, pol)
				scenarios++

				plain, plainTrace := run(name, g, cfg, false)
				shadow, shadowTrace := run(name, g, cfg, true)
				if math.Float64bits(plain.Time) != math.Float64bits(shadow.Time) {
					t.Errorf("%s: makespan diverged under ShadowCheck: %v vs %v",
						name, plain.Time, shadow.Time)
				}
				if plain != shadow {
					t.Errorf("%s: Result diverged under ShadowCheck:\nplain:  %+v\nshadow: %+v",
						name, plain, shadow)
				}
				if plainTrace != shadowTrace {
					t.Errorf("%s: trace bytes diverged under ShadowCheck", name)
				}
			}
		}
	}
	if scenarios < 40 {
		t.Errorf("only %d scenarios, want >= 40", scenarios)
	}
}

// equivGraph is the planner-equivalence soup's random graph (see
// internal/core's plan_equiv_test.go): mixed object sizes large enough
// to trigger chunking at small DRAM capacities, 2–4 kinds, and (on odd
// seeds) a mid-graph hot-set shift so drift detection and replanning
// get exercised.
func equivGraph(seed int64) *task.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := task.NewBuilder(fmt.Sprintf("equiv%d", seed))
	nObj := rng.Intn(8) + 3
	objs := make([]task.ObjectID, nObj)
	for i := range objs {
		size := int64(rng.Intn(24)+1) * mem.MB
		objs[i] = b.ObjectOpt("o", size, rng.Intn(2) == 0)
	}
	kinds := []string{"ka", "kb", "kc", "kd"}[:rng.Intn(3)+2]
	nTasks := rng.Intn(120) + 40
	shift := nTasks / 2
	for i := 0; i < nTasks; i++ {
		bias := 0
		if seed%2 == 1 && i >= shift {
			bias = nObj / 2
		}
		var acc []task.Access
		used := map[task.ObjectID]bool{}
		for j := 0; j <= rng.Intn(3); j++ {
			o := objs[(rng.Intn(nObj)+bias)%nObj]
			if used[o] {
				continue
			}
			used[o] = true
			acc = append(acc, task.Access{
				Obj:    o,
				Mode:   task.AccessMode(rng.Intn(3)),
				Loads:  int64(rng.Intn(400000)),
				Stores: int64(rng.Intn(200000)),
				MLP:    float64(1 + rng.Intn(12)),
			})
		}
		if acc == nil {
			acc = []task.Access{{Obj: objs[0], Mode: task.In, Loads: 100, MLP: 2}}
		}
		b.Submit(kinds[rng.Intn(len(kinds))], rng.Float64()*1e-4, acc, nil)
	}
	return b.Build()
}
