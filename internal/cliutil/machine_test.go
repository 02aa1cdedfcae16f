package cliutil

import (
	"encoding/json"
	"flag"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/mem"
	"repro/internal/prof"
)

func TestMachineSpecDefaults(t *testing.T) {
	h, err := MachineSpec{}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumTiers() != 2 {
		t.Fatalf("default machine has %d tiers, want 2", h.NumTiers())
	}
	if h.DRAMCapacity != 128*mem.MB {
		t.Fatalf("default DRAM capacity %d, want 128 MB", h.DRAMCapacity)
	}
	if h.NVM.ReadBW != mem.NVMBandwidth(0.5).ReadBW {
		t.Fatalf("default NVM bandwidth %g", h.NVM.ReadBW)
	}
}

func TestMachineSpecThreeTier(t *testing.T) {
	h, err := MachineSpec{NVM: "optane", DRAMMB: 64, CXLMB: 256}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumTiers() != 3 {
		t.Fatalf("cxl machine has %d tiers, want 3", h.NumTiers())
	}
	if h.Tiers[1].Capacity != 256*mem.MB {
		t.Fatalf("CXL tier capacity %d", h.Tiers[1].Capacity)
	}
	if h.NVM.Name != "OptanePM" {
		t.Fatalf("slow device %q", h.NVM.Name)
	}
}

func TestMachineSpecErrors(t *testing.T) {
	if _, err := (MachineSpec{NVM: "dax"}).Build(); err == nil {
		t.Fatal("bad NVM spec accepted")
	}
	if _, err := (MachineSpec{DRAMMB: -1}).Build(); err == nil {
		t.Fatal("negative DRAM accepted")
	}
}

// TestMachineSpecJSONRoundTrip pins the request-schema field names the
// serve daemon accepts: the same spec strings as the CLI flags.
func TestMachineSpecJSONRoundTrip(t *testing.T) {
	var m MachineSpec
	if err := json.Unmarshal([]byte(`{"nvm":"bw:0.25","dram_mb":64,"cxl_mb":32}`), &m); err != nil {
		t.Fatal(err)
	}
	if m.NVM != "bw:0.25" || m.DRAMMB != 64 || m.CXLMB != 32 {
		t.Fatalf("decoded %+v", m)
	}
	if m.String() != "nvm=bw:0.25,dram=64,cxl=32" {
		t.Fatalf("canonical form %q", m.String())
	}
}

func TestMachineFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	m := MachineFlags(fs)
	if err := fs.Parse([]string{"-nvm", "lat:4", "-dram", "32", "-cxl", "16"}); err != nil {
		t.Fatal(err)
	}
	if m.NVM != "lat:4" || m.DRAMMB != 32 || m.CXLMB != 16 {
		t.Fatalf("parsed %+v", *m)
	}
}

func TestParsePolicyAndScheduler(t *testing.T) {
	for _, name := range core.PolicyNames() {
		if _, err := ParsePolicy(name); err != nil {
			t.Fatalf("policy %q: %v", name, err)
		}
	}
	if p, err := ParsePolicy("tahoe"); err != nil || p != core.Tahoe {
		t.Fatalf("tahoe -> %v, %v", p, err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	for _, name := range core.SchedulerNames() {
		if _, err := ParseScheduler(name); err != nil {
			t.Fatalf("scheduler %q: %v", name, err)
		}
	}
	if _, err := ParseScheduler("bogus"); err == nil {
		t.Fatal("bogus scheduler accepted")
	}
}

func TestParseFaults(t *testing.T) {
	s, err := ParseFaults("rate=2,seed=7,horizon=1")
	if err != nil || s.Empty() {
		t.Fatalf("spec rejected: %v (schedule %+v)", err, s)
	}
	if s2, err := ParseFaults(""); err != nil || s2 != nil {
		t.Fatalf("empty spec -> %v, %v", s2, err)
	}
	if _, err := ParseFaults("rate=x"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestParseSampling(t *testing.T) {
	base := prof.DefaultConfig()
	got, err := ParseSampling("interval=100000, jitter=0.4, seed=9, window=3, adaptive", base)
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.SamplingInterval = 100000
	want.Jitter = 0.4
	want.Seed = 9
	want.Window = 3
	want.Adaptive = true
	if got != want {
		t.Fatalf("ParseSampling = %+v, want %+v", got, want)
	}
	if got, err := ParseSampling("", base); err != nil || got != base {
		t.Fatalf("empty spec must be a no-op: %+v, %v", got, err)
	}
	for _, bad := range []string{"interval=0", "jitter=-1", "window=x", "bogus=1", "adaptive=maybe", "jitter=NaN", "jitter=Inf"} {
		if _, err := ParseSampling(bad, base); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

func TestParseFeedback(t *testing.T) {
	base := feedback.Config{}
	got, err := ParseFeedback("on, alpha=0.25, deadband=1.5, threshold=0.75, budget=6", base)
	if err != nil {
		t.Fatal(err)
	}
	want := feedback.Config{Enabled: true, Alpha: 0.25, Deadband: 1.5, ReplanThreshold: 0.75, ReplanBudget: 6}
	if got != want {
		t.Fatalf("ParseFeedback = %+v, want %+v", got, want)
	}
	// A bare "on" enables with zero-valued (default-resolving) knobs.
	if got, err := ParseFeedback("on", base); err != nil || !got.Enabled || got != (feedback.Config{Enabled: true}) {
		t.Fatalf("bare on -> %+v, %v", got, err)
	}
	// Any non-empty spec enables, even knobs-only.
	if got, err := ParseFeedback("alpha=0.5", base); err != nil || !got.Enabled {
		t.Fatalf("knobs-only spec did not enable: %+v, %v", got, err)
	}
	if got, err := ParseFeedback("", base); err != nil || got != base {
		t.Fatalf("empty spec must be a no-op: %+v, %v", got, err)
	}
	for _, bad := range []string{"alpha=0", "alpha=2", "deadband=-1", "threshold=x", "budget=lots", "bogus=1", "off",
		"alpha=NaN", "deadband=NaN", "deadband=Inf", "threshold=NaN", "threshold=Inf"} {
		if _, err := ParseFeedback(bad, base); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}
