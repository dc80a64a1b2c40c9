package main

import (
	"time"

	"repro/internal/fl"
	"repro/internal/hier"
	"repro/internal/trace"
)

// Fleet simulation workload shape: N=1,000,000 devices in 1024 regions,
// 5% cohorts, commit at 768 regional arrivals, a fixed 0.6 frequency
// fraction and one engine worker (flsim's -hier-workers default). τ, ξ and
// λ are the hier sweep's defaults.
const (
	hierN           = 1_000_000
	hierRegions     = 1024
	hierCohort      = 0.05
	hierMinArrivals = 768
	hierFrac        = 0.6
	hierTau         = 1
	hierModelBytes  = 5e5
	hierLambda      = 1e-3
	// hierSetups is how many times a run builds fleet and engine; setup_s
	// is their median.
	hierSetups = 5
)

// hierSize is the fleet shape of one pass.
type hierSize struct{ n, regions, minArrivals int }

func hierSizeFor(o runOpts) hierSize {
	if o.small {
		return hierSize{n: 20_000, regions: 64, minArrivals: 48}
	}
	return hierSize{n: hierN, regions: hierRegions, minArrivals: hierMinArrivals}
}

func hierConfig(seed int64, minArrivals int) hier.Config {
	return hier.Config{
		Tau: hierTau, ModelBytes: hierModelBytes, Lambda: hierLambda,
		CohortFrac: hierCohort, MinArrivals: minArrivals, Workers: 1, Seed: seed,
	}
}

// timedPlanner wraps a planner and times its PlanInto calls.
type timedPlanner struct {
	inner hier.CohortPlanner
	kids  *childSpans
}

func (p *timedPlanner) Name() string { return p.inner.Name() }

func (p *timedPlanner) PlanInto(dst []float64, e *hier.Engine) error {
	s := time.Now()
	err := p.inner.PlanInto(dst, e)
	p.kids.add("hier.plan", s, time.Now())
	return err
}

func runHier(o runOpts) *outcome {
	out := newOutcome()
	size := hierSizeFor(o)
	setups := hierSetups
	if o.short {
		setups = 1
	}
	var (
		eng                    *hier.Engine
		top                    hier.Topology
		setupS, fleetMS, engMS []float64
	)
	for k := 0; k < setups; k++ {
		eng = nil // let the previous fleet go
		settle()  // every set-up starts from the same heap state
		t0 := time.Now()
		fleet, err := hier.NewFleet(size.n, hier.FleetOptions{AlignPhases: true}, o.seed)
		if err != nil {
			out.fail("fleet: %v", err)
			return out
		}
		t1 := time.Now()
		top, err = hier.EvenTopology(size.n, size.regions)
		if err != nil {
			out.fail("topology: %v", err)
			return out
		}
		eng, err = hier.NewEngine(fleet, top, hierConfig(o.seed, size.minArrivals))
		if err != nil {
			out.fail("engine: %v", err)
			return out
		}
		t2 := time.Now()
		setupS = append(setupS, t2.Sub(t0).Seconds())
		fleetMS = append(fleetMS, float64(t1.Sub(t0))/1e6)
		engMS = append(engMS, float64(t2.Sub(t1))/1e6)
	}
	out.e2e["setup_s"] = medianOf(setupS)
	cohorts := cohortSizes(top, hierCohort)

	seconds := o.seconds
	if o.short {
		seconds = 0.5
	}
	tr := newTracer(kindFor(o), seconds)
	rec := tr.recorder()
	kids := &childSpans{}
	fixed := hier.FixedPlanner{Frac: hierFrac}
	timed := &timedPlanner{inner: fixed, kids: kids}
	mc := &modeCounter{}
	var (
		ops                                   []op
		participants, dispatched, late, stale int
		tracedParticipants                    int
	)
	settle()
	heap := startHeapSampler()
	tr.restart()
	deadline := tr.origin.Add(time.Duration(seconds * float64(time.Second)))
	for step := 0; ; step++ {
		s := time.Now()
		mode := tr.mode(s)
		var p hier.CohortPlanner = fixed
		if mode == 1 {
			p = timed
		}
		out.attempted++
		g, err := eng.StepInto(p)
		e := time.Now()
		if err != nil {
			// An engine error leaves the round uncommitted; the next step
			// would not be the same operation, so the run stops here.
			out.failed++
			out.fail("round %d: %v", step, err)
			break
		}
		ops = append(ops, op{1, float64(e.Sub(s)) / 1e6})
		mc.ops[mode]++
		if err := checkRound(g, hierLambda, cohorts, size.regions, size.minArrivals); err != nil && len(out.problems) < 8 {
			out.fail("%v", err)
		}
		participants += g.Participants
		dispatched += g.Dispatched
		late += g.Late
		stale += g.StaleApplied
		if mode == 1 {
			tracedParticipants += g.Participants
			kids.flush(rec, int64(step), rec.add(int64(step), -1, "hier.round", s, e))
		}
		// Whole rounds of 8 steps between deadline checks.
		if step%8 == 7 && !e.Before(deadline) {
			break
		}
	}
	elapsed := time.Since(tr.origin)
	out.e2e["peak_heap_mb"] = heap.stopMB()
	if len(ops) == 0 {
		return out
	}
	phaseFigures(out, o, ops, elapsed)
	out.check(flatIdentity(o.seed))

	if tr.kind != traceOff {
		uploadFinishProbe(out, rec, eng.Fleet.Pool[0], hierModelBytes)
		st := tr.stats()
		out.layers["hier.fleet_build_ms"] = medianOf(fleetMS)
		out.layers["hier.engine_build_ms"] = medianOf(engMS)
		out.layers["hier.plan_us"] = st.medianDur("hier.plan", 1e3)
		out.layers["hier.step_ms"] = st.medianSelf("hier.round", 1e6)
		stepNS := 0.0
		for _, v := range st.self["hier.round"] {
			stepNS += v
		}
		if stepNS > 0 {
			out.layers["hier.device_rounds_per_s"] = float64(tracedParticipants) / (stepNS / 1e9)
		}
		out.layers["hier.participants"] = float64(participants)
		out.layers["hier.dispatched"] = float64(dispatched)
		out.layers["hier.late"] = float64(late)
		out.layers["hier.stale_applied"] = float64(stale)
		if tr.kind == traceAlternate {
			out.layers["bench.trace_overhead_pct"] = tr.overheadPct(mc, elapsed)
		}
		out.layers["trace.upload_finish_ns"] = st.medianDur("trace.upload_finish.x1000", 1e3)
		if err := tr.dump(spanPath(o, "hier-1m")); err != nil {
			out.fail("write spans: %v", err)
		}
	}
	return out
}

// flatIdentity runs a degenerate slice of the engine — one region, full
// cohort, full barrier — beside the flat simulator on the same devices and
// checks every round bit for bit.
func flatIdentity(seed int64) error {
	const n, steps = 64, 12
	fleet, err := hier.NewFleet(n, hier.FleetOptions{AlignPhases: true, PoolSize: 8}, seed)
	if err != nil {
		return err
	}
	sys, err := fleet.System(hierTau, hierModelBytes, hierLambda)
	if err != nil {
		return err
	}
	ses, err := fl.NewSession(sys, 0)
	if err != nil {
		return err
	}
	top, err := hier.EvenTopology(n, 1)
	if err != nil {
		return err
	}
	cfg := hierConfig(seed, 0)
	cfg.CohortFrac = 1
	eng, err := hier.NewEngine(fleet, top, cfg)
	if err != nil {
		return err
	}
	freqs := make([]float64, n)
	for i, d := range sys.Devices {
		freqs[i] = hierFrac * d.MaxFreqHz
	}
	for k := 0; k < steps; k++ {
		flat, err := ses.StepInto(freqs)
		if err != nil {
			return err
		}
		h, err := eng.StepInto(hier.FixedPlanner{Frac: hierFrac})
		if err != nil {
			return err
		}
		if err := checkFlatIdentity(h, flat); err != nil {
			return err
		}
	}
	return nil
}

// uploadFinishProbe times trace.UploadFinish in batches of 1000 calls (one
// call is tens of nanoseconds, below the clock's useful resolution).
func uploadFinishProbe(out *outcome, rec *recorder, t *trace.Trace, bytes float64) {
	dur := t.Duration()
	for b := 0; b < 50; b++ {
		s := time.Now()
		for i := 0; i < 1000; i++ {
			at := float64((b*1000+i)*7919%100000) / 100000 * dur
			if _, err := t.UploadFinish(at, bytes); err != nil {
				out.fail("upload probe: %v", err)
				return
			}
		}
		rec.add(int64(b), -1, "trace.upload_finish.x1000", s, time.Now())
	}
}
