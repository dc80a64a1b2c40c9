// Command perfbench is the repository's benchmark: it measures the paper's
// two user-facing costs — per-round online reasoning behind the serving
// daemon and Algorithm 1's offline training — and the fleet simulation,
// end to end and layer by layer, by timing calls into the public functions
// of the internal packages from outside. See README.md.
//
// One run:
//
//	bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 30 --trace 0
//
// prints per-workload figures on standard error and, as its last line of
// standard output, one JSON object with correct, attempted, failed and the
// metrics (end-to-end with --trace 0, per-layer with --trace 1).
//
// --workload all runs each of the four workloads untraced and then traced
// and prints every end-to-end and per-layer metric; --steady N runs each
// workload N times, interleaved, in child processes and prints the median
// and quartiles of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// workload is one set of inputs the benchmark runs (README.md says why
// each was chosen).
type workload struct {
	name string
	run  func(runOpts) *outcome
}

var workloads = []workload{
	{"serve-batch", func(o runOpts) *outcome { return runServe(o, 16) }},
	{"serve-single", func(o runOpts) *outcome { return runServe(o, 1) }},
	{"train-ppo", runTrain},
	{"hier-1m", runHier},
}

// metricDef declares a reported metric: its unit and better direction.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"server.register_ms", "ms", "lower"},
	{"server.warmup_s", "s", "lower"},
	{"server.decode_us", "us", "lower"},
	{"server.encode_us", "us", "lower"},
	{"server.unattributed_us", "us", "lower"},
	{"guard.decide_us", "us", "lower"},
	{"guard.self_us", "us", "lower"},
	{"guard.self_cold_us", "us", "lower"},
	{"guard.audit_last_us", "us", "lower"},
	{"sched.drl_us", "us", "lower"},
	{"sched.heuristic_us", "us", "lower"},
	{"sched.plan_cost_us", "us", "lower"},
	{"server.requests", "count", "higher"},
	{"server.decisions", "count", "higher"},
	{"server.degraded", "count", "lower"},
	{"server.degrade_transitions", "count", "lower"},
	{"guard.primary_ratio", "ratio", "higher"},
	{"core.rollout_ms", "ms", "lower"},
	{"core.update_ms", "ms", "lower"},
	{"core.checkpoint_ms", "ms", "lower"},
	{"rl.make_batch_us", "us", "lower"},
	{"rl.ppo_update_ms", "ms", "lower"},
	{"env.step_us", "us", "lower"},
	{"fl.iteration_us", "us", "lower"},
	{"trace.upload_finish_ns", "ns", "lower"},
	{"core.updates", "count", "higher"},
	{"core.transitions", "count", "higher"},
	{"core.checkpoints", "count", "higher"},
	{"hier.fleet_build_ms", "ms", "lower"},
	{"hier.engine_build_ms", "ms", "lower"},
	{"hier.plan_us", "us", "lower"},
	{"hier.step_ms", "ms", "lower"},
	{"hier.device_rounds_per_s", "1/s", "higher"},
	{"hier.participants", "count", "higher"},
	{"hier.dispatched", "count", "higher"},
	{"hier.late", "count", "lower"},
	{"hier.stale_applied", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs a workload and assembles its result. It also makes a short
// traced pass of each companion and takes the per-layer metrics the named
// workload does not measure itself from them. When complete is set, every
// declared metric of the run's kind must have been measured.
func runOne(w workload, o runOpts, comps []workload, complete bool) *result {
	out := w.run(o)
	report(w.name, out, o.trace)
	for _, v := range comps {
		so := o
		so.short, so.trace = true, false
		sub := v.run(so)
		report(v.name+" (short traced pass)", sub, true)
		out.problems = append(out.problems, sub.problems...)
		for k, val := range sub.layers {
			if _, ok := out.layers[k]; !ok {
				out.layers[k] = val
			}
		}
	}
	reported := len(out.problems)
	res := &result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	defs, vals := endToEnd, out.e2e
	if o.trace {
		defs, vals = perLayer, out.layers
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !complete {
			continue
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			out.problems = append(out.problems, fmt.Sprintf("metric %s not measured", d.name))
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		res.Correct = false
		out.problems = append(out.problems, "no operation attempted")
	}
	for _, p := range out.problems[reported:] {
		fmt.Fprintf(os.Stderr, "   CHECK FAILED: %s\n", p)
	}
	return res
}

// companions are the workloads a traced run of the named one also passes
// through briefly, so that it reports every per-layer metric: one serving
// workload, training and the fleet. Earlier companions win a metric both
// report (trace.upload_finish_ns comes from the fleet before training).
func companions(name string) []workload {
	var out []workload
	for _, c := range []string{"hier-1m", "train-ppo", "serve-batch"} {
		if c == name || (c == "serve-batch" && strings.HasPrefix(name, "serve-")) {
			continue
		}
		w, _ := findWorkload(c)
		out = append(out, w)
	}
	return out
}

// report prints a pass's figures and check failures on standard error. A
// traced pass's end-to-end figures are left out: tracing slows the timed
// phase, so end-to-end figures come from untraced passes only.
func report(name string, out *outcome, traced bool) {
	fmt.Fprintf(os.Stderr, "== %s: attempted %d, failed %d, checks %s\n", name, out.attempted, out.failed, verdict(out))
	groups := []map[string]float64{out.e2e, out.info, out.layers}
	if traced {
		groups = groups[1:]
	}
	for _, group := range groups {
		keys := make([]string, 0, len(group))
		for k := range group {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "   %-28s %.6g\n", k, group[k])
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "   CHECK FAILED: %s\n", p)
	}
}

func verdict(out *outcome) string {
	if len(out.problems) == 0 {
		return "passed"
	}
	return fmt.Sprintf("%d FAILED", len(out.problems))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: serve-batch, serve-single, train-ppo, hier-1m, or all (each untraced, then traced; ignores --trace)")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 30, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
		workdir = flag.String("workdir", ".bench_build", "directory for temporary files and span dumps")
		steady  = flag.Int("steady", 0, "run every workload this many times, interleaved, in child processes, and print median and quartiles of each metric")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if !(*seconds > 0) {
		fatalf("--seconds must be positive")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatalf("workdir: %v", err)
	}
	if *steady > 0 {
		if err := runSteady(*steady, *seed, *seconds, *trace == 1, *workdir); err != nil {
			fatalf("%v", err)
		}
		return
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	if *name == "all" {
		printJSON(runAll(o))
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	var comps []workload
	if o.trace {
		comps = companions(w.name)
	}
	printJSON(runOne(w, o, comps, true))
}

// runAll runs every workload twice, untraced for its end-to-end metrics
// and then traced for its per-layer ones, and prints one table per pass
// with every metric by name and unit and the pass's attempted and failed
// counts. It returns the combined result, whose metric names are prefixed
// by the workload; the traced passes together must measure every
// per-layer metric.
func runAll(o runOpts) *result {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	measured := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			po := o
			po.trace = traced
			res := runOne(w, po, nil, !traced)
			kind := "end-to-end"
			if traced {
				kind = "per-layer (traced)"
			}
			fmt.Printf("%s %s: attempted %d, failed %d, correct %v\n", w.name, kind, res.Attempted, res.Failed, res.Correct)
			keys := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				m := res.Metrics[k]
				fmt.Printf("   %-28s %14.6g %s\n", k, m.Value, m.Unit)
				all.Metrics[w.name+"/"+k] = m
				measured[k] = measured[k] || traced
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
		}
	}
	for _, d := range perLayer {
		if !measured[d.name] {
			all.Correct = false
			fmt.Fprintf(os.Stderr, "   CHECK FAILED: per-layer metric %s measured by no workload\n", d.name)
		}
	}
	return all
}

func printJSON(r *result) {
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
