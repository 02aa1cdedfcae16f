// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time on inputs drawn from a seed, checks every
// simulated output, and prints its metrics by name and unit, the last
// line of standard output being one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1
// the run measures half its time untraced and half with spans around
// every call into a layer, prints both halves' end-to-end numbers side
// by side, measures each layer on the workload's own inputs, prints the
// per-layer metrics and writes the spans as JSONL.
//
// Build and run it from the repository root through the wrapper:
//
//	bash perfbench/run.sh --workload plan-scale --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// bench is one workload, set up and ready to measure.
type bench interface {
	// measure runs the workload's load for d.
	measure(d time.Duration, rec *recorder) (loopResult, error)
	// layers measures every layer on the workload's own inputs.
	layers(rec *recorder) (map[string]float64, error)
	close()
}

// workloadDef names a workload and sets it up. parts lists the lengths
// of the loads the run will measure.
type workloadDef struct {
	name  string
	setup func(seed int64, parts []time.Duration, rec *recorder) (bench, error)
}

var workloadDefs = []workloadDef{
	{"plan-scale", setupPlanScale},
	{"baseline-grid", setupBaselineGrid},
	{"serve-open", setupServeOpen},
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"tasks_per_s", "1/s"},
	{"max_rate_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []metricDef{
	{"workloads.build_ms", "ms"},
	{"task.tasks", "count"},
	{"task.objects", "count"},
	{"calib.calibrate_ms", "ms"},
	{"calib.factors_us", "us"},
	{"core.plan_global_ms", "ms"},
	{"core.plan_local_ms", "ms"},
	{"core.plan_replan_ms", "ms"},
	{"core.replans", "count"},
	{"placement.solve_us", "us"},
	{"placement.memo_hit_ratio", "ratio"},
	{"prof.record_ns", "ns"},
	{"prof.samples", "count"},
	{"core.run_floor_ms", "ms"},
	{"core.runtime_ms", "ms"},
	{"migrate.migrations", "count"},
	{"migrate.bytes_mb", "MB"},
	{"migrate.failed", "count"},
	{"migrate.overlap_frac", "ratio"},
	{"trace.events", "count"},
	{"trace.bytes", "bytes"},
	{"trace.write_jsonl_ms", "ms"},
	{"trace.record_overhead_ms", "ms"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.wait_ms_p99", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.run_ms_p99", "ms"},
	{"serve.http_ms_p50", "ms"},
	{"serve.run_ms_p50.plain", "ms"},
	{"serve.run_ms_p50.traced", "ms"},
	{"serve.run_ms_p50.faults", "ms"},
	{"serve.run_ms_p50.feedback", "ms"},
	{"serve.run_ms_p50.inline", "ms"},
	{"serve.shed_ratio", "ratio"},
	{"serve.degraded_ratio", "ratio"},
	{"serve.max_queue", "count"},
	{"gen.late_ms_p99", "ms"},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

func nproc() int { return runtime.NumCPU() }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: plan-scale, baseline-grid or serve-open")
	seed := fs.Int64("seed", 1, "seed of the inputs and of the op order")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	printPins := fs.Bool("pins", false, "print the closed-loop runs' simulated outputs as pin literals and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printPins {
		return emitPins(stdout)
	}
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == *name {
			def = &workloadDefs[i]
		}
	}
	if def == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		logf("need --workload plan-scale|baseline-grid|serve-open, --seconds > 0 and --trace 0|1")
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	parts := []time.Duration{d}
	if *traced == 1 {
		parts = []time.Duration{d / 2, d / 2}
	}
	var rec *recorder
	if *traced == 1 {
		rec = newRecorder()
	}

	var b bench
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		b, err = def.setup(*seed, parts, rec)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			logf("set-up: %v", err)
			return 1
		}
	}
	defer b.close()

	var results []loopResult
	for i, p := range parts {
		var prec *recorder
		if i == 1 {
			prec = rec
		}
		runtime.GC()
		lr, err := b.measure(p, prec)
		if err != nil {
			logf("measure: %v", err)
			return 1
		}
		results = append(results, lr)
	}
	rss, err := peakRSSMB()
	if err != nil {
		logf("%v", err)
		return 1
	}

	out := result{Correct: true}
	for _, lr := range results {
		out.Attempted += lr.attempted
		out.Failed += lr.failed
	}
	e2e := make([]map[string]float64, len(results))
	for i, lr := range results {
		e2e[i] = map[string]float64{
			"setup_s":         median(setups),
			"op_ms_p50":       median(lr.lat),
			"op_ms_p90":       percentile(lr.lat, 90),
			"tasks_per_s":     float64(lr.tasks) / lr.wall.Seconds(),
			"max_rate_per_s":  lr.rate,
			"cpu_ms_per_op":   lr.cpuMS / float64(lr.attempted),
			"alloc_mb_per_op": lr.allocMB / float64(lr.attempted),
			"peak_rss_mb":     rss,
		}
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d nproc=%d\n", def.name, *seed, *seconds, *traced, nproc())
	printEndToEnd(stdout, e2e, results)

	var values map[string]float64
	var defs []metricDef
	if *traced == 0 {
		values, defs = e2e[0], endToEnd
	} else {
		defs = perLayer
		values, err = b.layers(rec)
		out.Attempted++
		if err != nil {
			logf("layers: %v", err)
			out.Failed++
			values = map[string]float64{}
		}
		for k, v := range results[1].layer {
			values[k] = v
		}
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", def.name, *seed))
		if err := rec.writeJSONL(path); err != nil {
			logf("%v", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	out.Metrics = map[string]metricValue{}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			logf("metric %s missing or not finite", m.name)
			out.Correct = false
			continue
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		if *traced == 1 {
			fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	line, err := json.Marshal(out)
	if err != nil {
		logf("encode result: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printEndToEnd prints each measured part's end-to-end metrics side by
// side (untraced, then traced), with the op count, the error rate and
// the tail percentile the sample size supports.
func printEndToEnd(w io.Writer, e2e []map[string]float64, results []loopResult) {
	head := "  metric"
	if len(e2e) == 2 {
		head += fmt.Sprintf("%22s%16s", "untraced", "traced")
	}
	fmt.Fprintln(w, head)
	for _, m := range endToEnd {
		line := fmt.Sprintf("  %-18s", m.name)
		for _, vals := range e2e {
			line += fmt.Sprintf(" %15.6g", vals[m.name])
		}
		fmt.Fprintf(w, "%s %s\n", line, m.unit)
	}
	for _, lr := range results {
		tail := "no tail (fewer than 20 ops)"
		if p, ok := tailPercentile(len(lr.lat)); ok {
			tail = fmt.Sprintf("p%s = %.6g ms", strconv.FormatFloat(p, 'f', -1, 64), percentile(lr.lat, p))
		}
		fmt.Fprintf(w, "  ops=%d failed=%d error_rate=%.6g; latency samples=%d, tail %s\n", lr.attempted, lr.failed, ratio(float64(lr.failed), float64(lr.attempted)), len(lr.lat), tail)
		for _, n := range lr.notes {
			fmt.Fprintf(w, "    %s\n", n)
		}
	}
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// emitPins prints the pin table's entries as Go literals.
func emitPins(w io.Writer) int {
	all, err := pinnedRuns()
	if err != nil {
		logf("%v", err)
		return 1
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p := all[k]
		fmt.Fprintf(w, "\t%q: {%#x, %d, %d, %d, %q},\n", k, p.MakespanBits, p.Tasks, p.Migrations, p.Replans, p.PlanKind)
	}
	return 0
}
