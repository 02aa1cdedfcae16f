package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {999, 90, true}, {1000, 99, true},
		{9999, 99, true}, {10000, 99.9, true}, {1e6, 99.9, true},
	} {
		if p, ok := tailPercentile(c.n); p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 50: 3, 100: 5, 90: 4.6} {
		if got := percentile(xs, p); got < want-1e-12 || got > want+1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input")
	}
}

func TestNameCharset(t *testing.T) {
	for _, s := range []string{"setup_s", "serve.run_ms_p50.plain", "9lives", "a-b.c_d", strings.Repeat("x", 64)} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "a b", "a/b", "naïve", strings.Repeat("x", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, s := range []string{"ms", "1/s", "%", "count", "MB"} {
		if !validUnit(s) {
			t.Errorf("validUnit(%q) = false", s)
		}
	}
	for _, s := range []string{"", "m s", strings.Repeat("u", 17)} {
		if validUnit(s) {
			t.Errorf("validUnit(%q) = true", s)
		}
	}
	seen := map[string]bool{}
	for _, w := range workloadDefs {
		if !validName(w.name) || seen[w.name] {
			t.Errorf("bad or repeated workload name %q", w.name)
		}
		seen[w.name] = true
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(m.name) || !validUnit(m.unit) || seen[m.name] {
			t.Errorf("bad or repeated metric %q (unit %q)", m.name, m.unit)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares workloads the
// benchmark runs and exactly the metrics it reports, with their units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	// Every declared workload is one the benchmark runs; serve-open runs
	// only by hand (see README.md).
	for _, w := range spec.Workloads {
		found := false
		for _, d := range workloadDefs {
			found = found || d.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	for _, c := range []struct {
		got  []metric
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// TestWrongPinIsAFailure corrupts one pinned output and checks that the
// closed loop counts the op as failed.
func TestWrongPinIsAFailure(t *testing.T) {
	b, err := setupBaselineGrid(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bg := b.(*baselineGrid)
	wrong := map[string]pin{}
	for k, v := range pins {
		wrong[k] = v
	}
	p := wrong["heat/X-Mem"]
	p.MakespanBits ^= 1
	wrong["heat/X-Mem"] = p

	lr := closedLoop(time.Nanosecond, func(i int64) (int, error) { return bg.sweep(i, nil, wrong) })
	if lr.attempted != 1 || lr.failed != 1 {
		t.Fatalf("wrong pin: attempted %d, failed %d; want 1, 1", lr.attempted, lr.failed)
	}
	lr = closedLoop(time.Nanosecond, func(i int64) (int, error) { return bg.sweep(i, nil, pins) })
	if lr.failed != 0 {
		t.Fatalf("true pins: %d failed ops", lr.failed)
	}
}

func TestServeCheckCatchesMismatch(t *testing.T) {
	r := request{class: classTraced, want: expected{bits: 42, tasks: 3, sha: "ab"}}
	ok := outcome{status: 200}
	ok.resp.TimeSec = math.Float64frombits(42)
	ok.resp.Tasks = 3
	ok.resp.TraceSHA256 = "ab"
	if err := ok.check(r); err != nil {
		t.Fatalf("matching response: %v", err)
	}
	bad := ok
	bad.resp.TraceSHA256 = "cd"
	if bad.check(r) == nil {
		t.Error("a different trace digest passed the check")
	}
	refused := ok
	refused.status = 429
	if refused.check(r) == nil {
		t.Error("a 429 passed the check")
	}
}

func TestMaxRate(t *testing.T) {
	rates := []float64{100, 200, 300}
	if got := maxRate(rates, []float64{0, 0, 0}); got != 300 {
		t.Errorf("all met: %g, want 300", got)
	}
	if got := maxRate(rates, []float64{0, 0.005, 0.105}); got < 204.99 || got > 205.01 {
		t.Errorf("crossing: %g, want 205", got)
	}
	if got := maxRate(rates, []float64{0.02, 1, 1}); got != 50 {
		t.Errorf("first rate missed: %g, want 50", got)
	}
}

// validName reports whether s may name a workload or a metric: it
// starts with a letter or digit and has at most 64 letters, digits,
// '_', '.' and '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 || !alnum(s[0]) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !alnum(c) && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s may be a metric unit: 1 to 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !alnum(c) && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

func alnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
