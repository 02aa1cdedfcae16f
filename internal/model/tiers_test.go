package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/task"
)

// TaskDemandTiered with a two-tier fraction function must reproduce
// TaskDemand bit for bit: same per-tier accumulators, same ObjSec, same
// MemSec.
func TestTaskDemandTieredMatchesTwoTier(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := mem.NewHMS(mem.DRAM(), mem.OptanePM(), 64*mem.MB)
	b := task.NewBuilder("tiered-demand")
	objs := make([]task.ObjectID, 5)
	for i := range objs {
		objs[i] = b.Object("o", int64(i+1)*mem.MB)
	}
	var acc []task.Access
	for i := 0; i < 9; i++ {
		acc = append(acc, task.Access{
			Obj:    objs[i%len(objs)],
			Mode:   task.AccessMode(i % 3),
			Loads:  int64(rng.Intn(300000)),
			Stores: int64(rng.Intn(150000)),
			MLP:    float64(1 + rng.Intn(10)),
		})
	}
	b.Submit("k", 1e-5, acc, nil)
	g := b.Build()
	tk := g.Tasks[0]

	fracs := make(map[task.ObjectID]float64)
	for _, o := range objs {
		fracs[o] = rng.Float64()
	}
	legacy := TaskDemand(tk, h, func(obj task.ObjectID) float64 { return fracs[obj] })
	tiered := TaskDemandTiered(tk, h, func(obj task.ObjectID, tier mem.Tier) float64 {
		if tier == mem.InDRAM {
			return fracs[obj]
		}
		return 1 - fracs[obj]
	})

	if math.Float64bits(legacy.FixedSec) != math.Float64bits(tiered.FixedSec) {
		t.Errorf("FixedSec differs")
	}
	if math.Float64bits(legacy.MemSec()) != math.Float64bits(tiered.MemSec()) {
		t.Errorf("MemSec %v != %v", legacy.MemSec(), tiered.MemSec())
	}
	for tier := 0; tier < mem.MaxTiers; tier++ {
		if math.Float64bits(legacy.DevSec[tier]) != math.Float64bits(tiered.DevSec[tier]) {
			t.Errorf("DevSec[%d] %v != %v", tier, legacy.DevSec[tier], tiered.DevSec[tier])
		}
		if math.Float64bits(legacy.LatSec[tier]) != math.Float64bits(tiered.LatSec[tier]) {
			t.Errorf("LatSec[%d] differs", tier)
		}
		if math.Float64bits(legacy.BytesRead[tier]) != math.Float64bits(tiered.BytesRead[tier]) {
			t.Errorf("BytesRead[%d] differs", tier)
		}
		if math.Float64bits(legacy.BytesWritten[tier]) != math.Float64bits(tiered.BytesWritten[tier]) {
			t.Errorf("BytesWritten[%d] differs", tier)
		}
	}
	for _, e := range legacy.ObjSecs {
		if math.Float64bits(e.Sec) != math.Float64bits(tiered.ObjSecOf(e.Obj)) {
			t.Errorf("ObjSec[%d] %v != %v", e.Obj, e.Sec, tiered.ObjSecOf(e.Obj))
		}
	}
}

// On a three-tier machine the demand must land on the tier the fraction
// function names, and the total must cover every share.
func TestTaskDemandTieredThreeTier(t *testing.T) {
	h := mem.DRAMCXLNVM(64*mem.MB, 128*mem.MB)
	b := task.NewBuilder("tiered-3")
	o := b.Object("o", 8*mem.MB)
	b.Submit("k", 0, []task.Access{{Obj: o, Mode: task.In, Loads: 100000, MLP: 4}}, nil)
	g := b.Build()

	shares := []float64{0.2, 0.3, 0.5} // NVM, CXL, DRAM
	d := TaskDemandTiered(g.Tasks[0], h, func(_ task.ObjectID, tier mem.Tier) float64 {
		return shares[tier]
	})
	for tier := 0; tier < 3; tier++ {
		if d.DevSec[tier] <= 0 {
			t.Errorf("tier %d got no bandwidth demand", tier)
		}
		wantBytes := 100000 * shares[tier] * mem.CacheLineSize
		if math.Abs(d.BytesRead[tier]-wantBytes) > 1 {
			t.Errorf("tier %d read bytes %v, want %v", tier, d.BytesRead[tier], wantBytes)
		}
	}
	if d.DevSec[3] != 0 || d.LatSec[3] != 0 {
		t.Errorf("unused tier 3 accumulated demand")
	}
	// CXL is slower than DRAM and faster than Optane per byte: with these
	// shares the NVM share must dominate its DRAM-equivalent traffic time.
	if d.DevSec[0] <= d.DevSec[2]*shares[0]/shares[2] {
		t.Errorf("NVM share not slower per byte than DRAM share: %v vs %v", d.DevSec[0], d.DevSec[2])
	}
}

// On a three-tier machine the pair equations must order the tiers:
// moving up the hierarchy saves time, moving down costs it, the middle
// tier saves less than the fastest, a move onto the same tier saves
// nothing, and no migration cost is negative.
func TestBenefitProfiledOverTierPairs(t *testing.T) {
	h := mem.DRAMCXLNVM(64*mem.MB, 128*mem.MB)
	p := Params{HMS: h, DistinguishRW: true}
	benefit := func(from, to mem.Tier) float64 {
		return p.BenefitProfiled(2e6, 1e6, 8e9, from, to)
	}
	for i := mem.Tier(0); i < 3; i++ {
		if b := benefit(i, i); b != 0 {
			t.Errorf("benefit (%d,%d) = %v, want 0", i, i, b)
		}
		for j := mem.Tier(0); j < 3; j++ {
			if c := p.MigrationCost(16*mem.MB, 1e-3, i, j); c < 0 {
				t.Errorf("MigrationCost(%d,%d) = %v, negative", i, j, c)
			}
		}
	}
	if b := benefit(0, 2); b <= 0 {
		t.Errorf("NVM->DRAM benefit %v, want > 0", b)
	}
	if b := benefit(2, 0); b >= 0 {
		t.Errorf("DRAM->NVM benefit %v, want < 0", b)
	}
	if b := benefit(0, 1); b <= 0 || b >= benefit(0, 2) {
		t.Errorf("NVM->CXL benefit %v should be positive and below NVM->DRAM %v", b, benefit(0, 2))
	}
}
