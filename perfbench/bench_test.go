package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/hier"
	"repro/internal/server"
)

// The negative controls: every output check accepts a correct output and
// rejects it once one value is corrupted.

func validBatch(t *testing.T, b planBounds, count int) *server.DecideResponse {
	t.Helper()
	r := &server.DecideResponse{Count: count, Layer: "drl", Mode: "guarded", Iter: 32}
	for k := 0; k < count; k++ {
		p := make([]float64, len(b.max))
		for i := range p {
			p[i] = (b.floor[i] + b.max[i]) / 2
		}
		if count > 1 {
			r.Plans = append(r.Plans, p)
		}
		r.Freqs = p
	}
	return r
}

func TestCheckDecideRejectsEachCorruption(t *testing.T) {
	b, err := boundsFor(7, serveN)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 16} {
		if err := checkDecide(validBatch(t, b, count), count, b); err != nil {
			t.Fatalf("count %d: valid response rejected: %v", count, err)
		}
	}
	corruptions := map[string]func(r *server.DecideResponse){
		"count":           func(r *server.DecideResponse) { r.Count = 15 },
		"above max":       func(r *server.DecideResponse) { r.Plans[3][1] = b.max[1] * (1 + 1e-12) },
		"below floor":     func(r *server.DecideResponse) { r.Plans[0][0] = b.floor[0] * (1 - 1e-12) },
		"nan":             func(r *server.DecideResponse) { r.Plans[5][2] = math.NaN() },
		"short plan":      func(r *server.DecideResponse) { r.Plans[1] = r.Plans[1][:2] },
		"missing plan":    func(r *server.DecideResponse) { r.Plans = r.Plans[:15] },
		"final differs":   func(r *server.DecideResponse) { r.Freqs = append([]float64(nil), r.Freqs...); r.Freqs[0] = b.max[0] },
		"maxfreq inexact": func(r *server.DecideResponse) { r.Layer = "maxfreq" },
		"unknown layer":   func(r *server.DecideResponse) { r.Layer = "oracle" },
		"unknown mode":    func(r *server.DecideResponse) { r.Mode = "panic" },
		"negative iter":   func(r *server.DecideResponse) { r.Iter = -1 },
	}
	for name, corrupt := range corruptions {
		r := validBatch(t, b, 16)
		corrupt(r)
		if err := checkDecide(r, 16, b); err == nil {
			t.Errorf("%s: corrupted response accepted", name)
		}
	}
	// A max-frequency plan that is exactly δmax passes.
	r := validBatch(t, b, 1)
	r.Layer, r.Freqs = "maxfreq", append([]float64(nil), b.max...)
	if err := checkDecide(r, 1, b); err != nil {
		t.Fatalf("exact maxfreq plan rejected: %v", err)
	}
	r.Plans = [][]float64{r.Freqs}
	if err := checkDecide(r, 1, b); err == nil {
		t.Error("single decision with batch plans accepted")
	}
}

func tiling(spans ...[2]int) *decisionSet {
	d := newDecisionSet(0)
	for _, sp := range spans {
		d.add(sp[0], sp[1])
	}
	return d
}

func TestCheckTilingRejectsGapsAndOverlaps(t *testing.T) {
	good := tiling([2]int{32, 16}, [2]int{0, 16}, [2]int{16, 16}, [2]int{48, 1})
	if err := checkTiling(good, 49); err != nil {
		t.Fatalf("valid tiling rejected: %v", err)
	}
	// Two connections' records of one tenant merge into one tiling.
	a, b := tiling([2]int{0, 16}, [2]int{32, 16}), tiling([2]int{16, 16}, [2]int{48, 100})
	a.merge(b)
	if err := checkTiling(a, 148); err != nil {
		t.Fatalf("merged tiling rejected: %v", err)
	}
	a, b = tiling([2]int{0, 16}), tiling([2]int{15, 16})
	a.merge(b)
	for name, c := range map[string]struct {
		d     *decisionSet
		total int
	}{
		"gap":          {tiling([2]int{0, 16}, [2]int{17, 16}), 33},
		"overlap":      {tiling([2]int{0, 16}, [2]int{15, 16}), 31},
		"merged twice": {a, 31},
		"short":        {good, 50},
		"beyond":       {good, 48},
		"late":         {tiling([2]int{1, 16}), 17},
		"empty":        {tiling(), 1},
	} {
		if err := checkTiling(c.d, c.total); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCheckDrainRejectsDrops(t *testing.T) {
	if err := checkDrain(&server.DrainReport{Accepted: 10, Responded: 10}); err != nil {
		t.Fatalf("clean drain rejected: %v", err)
	}
	for _, rep := range []*server.DrainReport{
		{Accepted: 10, Responded: 9, Dropped: 1},
		{Accepted: 10, Responded: 9},
		{Accepted: 10, Responded: 10, Dropped: 1},
	} {
		if err := checkDrain(rep); err == nil {
			t.Errorf("drain %+v accepted", rep)
		}
	}
}

func TestCheckEpisodeRejectsEachCorruption(t *testing.T) {
	st := core.EpisodeStats{Episode: 6, AvgCost: 40.25, AvgReward: -4.025, Updates: 1}
	if err := checkEpisode(st, 280, 256, 10); err != nil {
		t.Fatalf("valid episode rejected: %v", err)
	}
	bad := st
	bad.Updates = 2
	if err := checkEpisode(bad, 280, 256, 10); err == nil {
		t.Error("wrong update count accepted")
	}
	bad = st
	bad.AvgReward = -4.0251
	if err := checkEpisode(bad, 280, 256, 10); err == nil {
		t.Error("reward that is not −cost/scale accepted")
	}
	if err := checkEvalCost(37.2, 40.96); err != nil {
		t.Fatalf("winning agent rejected: %v", err)
	}
	if err := checkEvalCost(41, 40.96); err == nil {
		t.Error("agent costlier than the max-frequency plan accepted")
	}
}

func TestTrainingRunChecksRejectEachCorruption(t *testing.T) {
	agent := []byte("agent bytes: weights, log-std, normalizer")
	same := append([]byte(nil), agent...)
	if err := checkSameAgent(1, same, agent); err != nil {
		t.Fatalf("identical agents rejected: %v", err)
	}
	if err := checkResumedAgent(same, agent); err != nil {
		t.Fatalf("identical resumed agent rejected: %v", err)
	}
	for i := range agent {
		bad := append([]byte(nil), agent...)
		bad[i] ^= 1
		if checkSameAgent(1, bad, agent) == nil {
			t.Errorf("agent with byte %d flipped accepted as the same agent", i)
		}
		if checkResumedAgent(bad, agent) == nil {
			t.Errorf("resumed agent with byte %d flipped accepted", i)
		}
	}
	if checkSameAgent(1, agent[:len(agent)-1], agent) == nil {
		t.Error("truncated agent accepted")
	}

	if err := checkCheckpointEpisode(300, 300); err != nil {
		t.Fatalf("checkpoint at the last episode rejected: %v", err)
	}
	for _, ep := range []int{299, 275, 301} {
		if checkCheckpointEpisode(ep, 300) == nil {
			t.Errorf("last checkpoint at episode %d of 300 accepted", ep)
		}
	}

	// 300 episodes at 25 per snapshot: 12 per training run.
	if err := checkCheckpointCount(36, 3, 300); err != nil {
		t.Fatalf("12 checkpoints per run rejected: %v", err)
	}
	for _, n := range []int{35, 37, 0} {
		if checkCheckpointCount(n, 3, 300) == nil {
			t.Errorf("%d checkpoints in 3 runs of 300 episodes accepted", n)
		}
	}
	// 20 episodes still snapshot once, after the last.
	if err := checkCheckpointCount(2, 2, 20); err != nil {
		t.Fatalf("one checkpoint per short run rejected: %v", err)
	}
}

func TestCheckRoundRejectsEachCorruption(t *testing.T) {
	const n, regions, m = 20_000, 64, 48
	fleet, err := hier.NewFleet(n, hier.FleetOptions{AlignPhases: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	top, err := hier.EvenTopology(n, regions)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hier.NewEngine(fleet, top, hierConfig(3, m))
	if err != nil {
		t.Fatal(err)
	}
	cohorts := cohortSizes(top, hierCohort)
	var rounds []hier.GlobalStats
	for k := 0; k < 6; k++ {
		g, err := eng.StepInto(hier.FixedPlanner{Frac: hierFrac})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRound(g, hierLambda, cohorts, regions, m); err != nil {
			t.Fatalf("valid round rejected: %v", err)
		}
		rounds = append(rounds, g)
	}
	corruptions := map[string]func(g *hier.GlobalStats){
		"cost":         func(g *hier.GlobalStats) { g.Cost = math.Nextafter(g.Cost, math.Inf(1)) * (1 + 1e-9) },
		"participants": func(g *hier.GlobalStats) { g.Participants++ },
		"dispatched":   func(g *hier.GlobalStats) { g.Dispatched = regions + 1 },
		"late":         func(g *hier.GlobalStats) { g.Late++ },
		"arrivals":     func(g *hier.GlobalStats) { g.OnTime, g.Late = 0, g.Late+g.OnTime },
	}
	for name, corrupt := range corruptions {
		g := rounds[len(rounds)-1]
		corrupt(&g)
		if err := checkRound(g, hierLambda, cohorts, regions, m); err == nil {
			t.Errorf("%s: corrupted round accepted", name)
		}
	}
	g := rounds[0]
	g.Dispatched, g.Participants = regions-1, (regions-1)*cohorts[0]
	if err := checkRound(g, hierLambda, cohorts, regions, m); err == nil {
		t.Error("round 0 that did not dispatch every region accepted")
	}
}

func TestCheckFlatIdentityRejectsOneULP(t *testing.T) {
	if err := flatIdentity(5); err != nil {
		t.Fatalf("degenerate slice diverges: %v", err)
	}
	h := hier.GlobalStats{Index: 2, StartTime: 10, Duration: 3, ComputeEnergy: 4, TxEnergy: 5, Cost: 3.009}
	f := fl.IterationStats{Index: 2, StartTime: 10, Duration: 3, ComputeEnergy: 4, TxEnergy: 5, Cost: 3.009}
	if err := checkFlatIdentity(h, f); err != nil {
		t.Fatalf("identical rounds rejected: %v", err)
	}
	f.Duration = math.Nextafter(f.Duration, 4)
	if err := checkFlatIdentity(h, f); err == nil {
		t.Error("a one-ulp difference accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Fatalf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
}

// TestWorkloadsSmall runs every workload end to end at a small size, traced,
// and expects every check to pass and every metric to be measured.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 3, seconds: 0.4, trace: true, small: true, workdir: t.TempDir()}
			out := w.run(o)
			if len(out.problems) > 0 {
				t.Fatalf("checks failed:\n%s", strings.Join(out.problems, "\n"))
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Fatalf("attempted %d, failed %d", out.attempted, out.failed)
			}
			for _, d := range endToEnd {
				if v, ok := out.e2e[d.name]; !ok || !(v > 0) {
					t.Errorf("end-to-end %s = %v (present %v)", d.name, v, ok)
				}
			}
			if v := out.layers["bench.trace_overhead_pct"]; math.IsNaN(v) {
				t.Error("trace overhead not measured")
			}
		})
	}
}

// TestTracedRunReportsEveryLayer checks that a traced run of one workload
// reports every per-layer metric, the other workloads' from short passes.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	w, _ := findWorkload("hier-1m")
	res := runOne(w, runOpts{seed: 4, seconds: 0.3, trace: true, small: true, workdir: t.TempDir()}, companions(w.name), true)
	if !res.Correct {
		t.Fatal("traced run incorrect (failed checks on stderr)")
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("per-layer %s missing", d.name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(perLayer))
	}
}

// TestRunAllReportsEveryMetric checks that --workload all reports, for
// every workload, every end-to-end metric from its untraced pass, and
// every per-layer metric from one of the traced passes.
func TestRunAllReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	res := runAll(runOpts{seed: 5, seconds: 0.3, small: true, workdir: t.TempDir()})
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct %v, failed %d (failed checks on stderr)", res.Correct, res.Failed)
	}
	layers := map[string]bool{}
	for _, w := range workloads {
		for _, d := range endToEnd {
			if m, ok := res.Metrics[w.name+"/"+d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", w.name, d.name, m, ok)
			}
		}
		for _, d := range perLayer {
			if _, ok := res.Metrics[w.name+"/"+d.name]; ok {
				layers[d.name] = true
			}
		}
	}
	for _, d := range perLayer {
		if !layers[d.name] {
			t.Errorf("per-layer %s reported by no workload", d.name)
		}
	}
}

func TestOffHeapRecordsHoldTheirCapacity(t *testing.T) {
	lat, err := newOffHeap[float32](1000)
	if err != nil {
		t.Fatal(err)
	}
	defer lat.free()
	buf := lat.buf
	for i := 0; i < 1000; i++ {
		buf = append(buf, float32(i))
	}
	if &buf[0] != &lat.buf[:1][0] || cap(buf) != 1000 || buf[999] != 999 {
		t.Fatalf("appends within capacity left the mapping (cap %d)", cap(buf))
	}
}

func TestWarmUpChecksRejectCorruption(t *testing.T) {
	specs := tenantSpecs()
	st := &statsDoc{}
	for _, sp := range specs {
		st.Tenants = append(st.Tenants, server.TenantStats{Name: sp.Name, Decisions: 4352,
			Served: map[string]int{"drl": 4000, "heuristic": 96}, Events: map[string]int{"drl:trip": 3}})
	}
	if err := checkAuditFull(st, specs); err != nil {
		t.Fatalf("full audits rejected: %v", err)
	}
	st.Tenants[2].Served["heuristic"] = 95
	if err := checkAuditFull(st, specs); err == nil {
		t.Error("a tenant one decision short of the audit cap accepted")
	}
	st.Tenants[2].Served["heuristic"] = 96

	a, b := snapshotOf(st, specs), snapshotOf(st, specs)
	if err := checkSnapshots([]warmSnapshot{a, b}); err != nil {
		t.Fatalf("identical set-ups rejected: %v", err)
	}
	b.Tenants = append([]tenantSnapshot(nil), b.Tenants...)
	b.Tenants[1].Events = map[string]int{"drl:trip": 4}
	if err := checkSnapshots([]warmSnapshot{a, b}); err == nil {
		t.Error("set-ups with different trip counts accepted")
	}
	b = snapshotOf(st, specs)
	b.DegradeTransitions++
	if err := checkSnapshots([]warmSnapshot{a, b}); err == nil {
		t.Error("set-ups with different transition counts accepted")
	}
}
