package core

import (
	"math"
	"testing"

	"repro/internal/mem"
)

// resultBits flattens a Result's float fields for bitwise comparison.
func resultBits(r Result) map[string]uint64 {
	return map[string]uint64{
		"Time":        math.Float64bits(r.Time),
		"CopySec":     math.Float64bits(r.Migration.CopySec),
		"ExposedSec":  math.Float64bits(r.Migration.ExposedSec),
		"Overhead":    math.Float64bits(r.RuntimeOverheadSec),
		"EnergyJ":     math.Float64bits(r.EnergyJ),
		"EnergyDynJ":  math.Float64bits(r.EnergyDynamicJ),
		"EnergyStatJ": math.Float64bits(r.EnergyStaticJ),
		"MemBusy":     math.Float64bits(r.MemBusyFrac),
		"CopyBusy":    math.Float64bits(r.CopyBusyFrac),
	}
}

// The tentpole's regression guard: an explicit two-element tier list must
// reproduce the classic two-tier machine's results bit for bit — same
// makespan, migrations, overheads, and energy — across policies and
// randomized workloads. The tier generalization must cost the two-tier
// configuration nothing, not even a ULP.
func TestTieredTwoTierBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := equivGraph(seed)
		caps := []int64{16, 48, 128}[seed%3] * mem.MB
		classic := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), caps)
		tiered := mem.NewTieredHMS(
			mem.TierSpec{Device: mem.NVMBandwidth(0.5), Capacity: classic.NVMCapacity},
			mem.TierSpec{Device: mem.DRAM(), Capacity: caps},
		)

		for _, pol := range []Policy{NVMOnly, DRAMOnly, FirstTouch, XMem, HWCache, PhaseBased, Tahoe} {
			cfgA := DefaultConfig(classic)
			cfgA.Policy = pol
			cfgA.Workers = int(seed%4) + 1
			cfgB := cfgA
			cfgB.HMS = tiered

			ra, errA := Run(g, cfgA)
			rb, errB := Run(g, cfgB)
			if errA != nil || errB != nil {
				t.Fatalf("seed %d %v: classic err %v, tiered err %v", seed, pol, errA, errB)
			}
			ba, bb := resultBits(ra), resultBits(rb)
			for k, va := range ba {
				if vb := bb[k]; va != vb {
					t.Errorf("seed %d %v: %s differs: classic %x tiered %x", seed, pol, k, va, vb)
				}
			}
			if ra.Migration.Migrations != rb.Migration.Migrations ||
				ra.Migration.BytesMoved != rb.Migration.BytesMoved ||
				ra.Migration.Failed() != rb.Migration.Failed() {
				t.Errorf("seed %d %v: migration counts differ: %+v vs %+v",
					seed, pol, ra.Migration, rb.Migration)
			}
			if ra.PlanKind != rb.PlanKind || ra.Replans != rb.Replans {
				t.Errorf("seed %d %v: plan trajectory differs: %s/%d vs %s/%d",
					seed, pol, ra.PlanKind, ra.Replans, rb.PlanKind, rb.Replans)
			}
		}
	}
}

// Three-tier smoke: the full Tahoe runtime on a DRAM+CXL+NVM machine
// must complete, produce a "tier" plan, migrate data, and beat the same
// machine with the middle tier absent whenever DRAM alone is scarce.
func TestThreeTierTahoe(t *testing.T) {
	seeds := []int64{2, 5, 8}
	var planKinds []string
	for _, seed := range seeds {
		g := equivGraph(seed)

		with := DefaultConfig(mem.DRAMCXLNVM(16*mem.MB, 64*mem.MB))
		with.Workers = 4
		restore := SetTestHook(func(r *runner) {
			planKinds = append(planKinds, r.plan.kind)
			if r.st.NumTiers() != 3 {
				t.Errorf("seed %d: runner saw %d tiers", seed, r.st.NumTiers())
			}
		})
		rw, err := Run(g, with)
		restore()
		if err != nil {
			t.Fatalf("seed %d 3-tier: %v", seed, err)
		}

		without := DefaultConfig(mem.NewHMS(mem.DRAM(), mem.OptanePM(), 16*mem.MB))
		without.Workers = 4
		ro, err := Run(g, without)
		if err != nil {
			t.Fatalf("seed %d 2-tier: %v", seed, err)
		}
		if rw.Time <= 0 || rw.Tasks != len(g.Tasks) {
			t.Fatalf("seed %d: bad 3-tier result %+v", seed, rw)
		}
		// A 64 MB CXL tier under a 16 MB DRAM cannot hurt: every placement
		// the two-tier machine can express is still available. Allow a hair
		// of slack for different plan trajectories.
		if rw.Time > ro.Time*1.05 {
			t.Errorf("seed %d: 3-tier %.6fs worse than 2-tier %.6fs", seed, rw.Time, ro.Time)
		}
	}
	sawTier := false
	for _, k := range planKinds {
		if k == "tier" {
			sawTier = true
		}
	}
	if !sawTier {
		t.Errorf("no 3-tier run produced a tier plan (kinds: %v)", planKinds)
	}
}

// A three-tier machine whose middle tier has zero capacity must behave
// sanely (no panics, all tasks complete) and closely track the plain
// two-tier machine.
func TestThreeTierZeroMiddle(t *testing.T) {
	g := equivGraph(4)
	cfg := DefaultConfig(mem.DRAMCXLNVM(32*mem.MB, 0))
	cfg.Workers = 2
	res, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != len(g.Tasks) {
		t.Fatalf("completed %d of %d tasks", res.Tasks, len(g.Tasks))
	}
}

// Exercise every policy on the three-tier machine: all must complete.
func TestThreeTierAllPolicies(t *testing.T) {
	g := equivGraph(7)
	for _, pol := range []Policy{NVMOnly, DRAMOnly, FirstTouch, XMem, HWCache, PhaseBased, Tahoe} {
		cfg := DefaultConfig(mem.DRAMCXLNVM(24*mem.MB, 48*mem.MB))
		cfg.Policy = pol
		cfg.Workers = 2
		res, err := Run(g, cfg)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Tasks != len(g.Tasks) || res.Time <= 0 {
			t.Fatalf("%v: bad result %+v", pol, res)
		}
	}
}
