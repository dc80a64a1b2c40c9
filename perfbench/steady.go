package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs every workload n times, interleaved (one run of each
// workload per repetition, seeds base, base+1, ...), each in its own child
// process exactly as a single run is made, and prints the median, the
// quartiles and the interquartile spread as a share of the median of
// every metric. The bounds in BENCHMARK.json come from these figures.
func runSteady(n int, base int64, seconds float64, trace bool, workdir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	type runs struct {
		values            map[string][]float64
		units             map[string]string
		attempted, failed []int64
		incorrect         int
	}
	all := map[string]*runs{}
	for rep := 0; rep < n; rep++ {
		for _, w := range workloads {
			seed := base + int64(rep)
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg, "-workdir", workdir)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %v\n%s", w.name, seed, err, stderr.String())
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %v", w.name, seed, err)
			}
			r := all[w.name]
			if r == nil {
				r = &runs{values: map[string][]float64{}, units: map[string]string{}}
				all[w.name] = r
			}
			for k, m := range res.Metrics {
				r.values[k] = append(r.values[k], m.Value)
				r.units[k] = m.Unit
			}
			r.attempted = append(r.attempted, res.Attempted)
			r.failed = append(r.failed, res.Failed)
			if !res.Correct {
				r.incorrect++
				os.Stderr.Write(stderr.Bytes())
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d done (correct %v)\n", w.name, seed, res.Correct)
		}
	}
	for _, w := range workloads {
		r := all[w.name]
		fmt.Printf("%s: %d runs, %d incorrect, attempted %v, failed %v\n", w.name, len(r.attempted), r.incorrect, r.attempted, r.failed)
		keys := make([]string, 0, len(r.values))
		for k := range r.values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("   %-28s %-6s %14s %14s %14s %9s  %s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "runs in order")
		for _, k := range keys {
			q1, q2, q3 := quartiles(r.values[k])
			vals := make([]string, len(r.values[k]))
			for i, v := range r.values[k] {
				vals[i] = strconv.FormatFloat(v, 'g', 4, 64)
			}
			fmt.Printf("   %-28s %-6s %14.6g %14.6g %14.6g %8.2f%%  %s\n", k, r.units[k], q2, q1, q3, (q3-q1)/q2*100, strings.Join(vals, " "))
		}
	}
	return nil
}
