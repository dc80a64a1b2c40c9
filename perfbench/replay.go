package main

import (
	"bytes"
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/guard"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/tensor"
)

// The daemon's guard stack is private and its /v1/stats histogram is
// log-bucketed, so the traced serving pass rebuilds one tenant's stack
// in-process from public functions — the same calls the daemon's tenant
// build makes — and times each layer from outside: the schedulers are
// wrapped in timing decorators, so the guard's own time is what is left
// of a Frequencies call after the scheduler calls it made.

// childSpans collects the scheduler calls made inside one guard decision;
// they are recorded as children once the decision's span exists.
type childSpans struct {
	names      []string
	start, end []time.Time
}

func (c *childSpans) add(name string, s, e time.Time) {
	c.names = append(c.names, name)
	c.start = append(c.start, s)
	c.end = append(c.end, e)
}

func (c *childSpans) flush(r *recorder, id int64, parent int32) {
	for i, n := range c.names {
		r.add(id, parent, n, c.start[i], c.end[i])
	}
	c.names, c.start, c.end = c.names[:0], c.start[:0], c.end[:0]
}

// timedDRL decorates the actor so the guard still hands it the state it
// scored (sched.DRL's FrequenciesFromState) and still sees its backend.
type timedDRL struct {
	d    *sched.DRL
	kids *childSpans
}

func (t *timedDRL) Name() string { return t.d.Name() }

func (t *timedDRL) Frequencies(ctx sched.Context) ([]float64, error) {
	s := time.Now()
	fs, err := t.d.Frequencies(ctx)
	t.kids.add("sched.drl", s, time.Now())
	return fs, err
}

func (t *timedDRL) FrequenciesFromState(ctx sched.Context, state tensor.Vector) ([]float64, error) {
	s := time.Now()
	fs, err := t.d.FrequenciesFromState(ctx, state)
	t.kids.add("sched.drl", s, time.Now())
	return fs, err
}

func (t *timedDRL) Backend() string { return t.d.Backend() }
func (t *timedDRL) F32Err() error   { return t.d.F32Err() }

// timedSched decorates a fallback scheduler.
type timedSched struct {
	s    sched.Scheduler
	kids *childSpans
}

func (t *timedSched) Name() string { return t.s.Name() }

func (t *timedSched) Frequencies(ctx sched.Context) ([]float64, error) {
	s := time.Now()
	fs, err := t.s.Frequencies(ctx)
	t.kids.add("sched."+t.s.Name(), s, time.Now())
	return fs, err
}

// replayStack is one tenant's guard stack built from public functions.
type replayStack struct {
	sys   *fl.System
	guard *guard.Guard
	kids  *childSpans
	heur  sched.Scheduler // a separate heuristic, timed on direct calls
	bw    []float64       // trace-mean bandwidths, the plan gate's estimate
}

func newReplayStack(spec server.TenantSpec) (*replayStack, error) {
	sc := experiments.TestbedScenario(spec.Seed)
	sc.N = spec.N
	sys, err := sc.Build()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = spec.Seed
	tr, err := core.NewTrainer(sys, cfg)
	if err != nil {
		return nil, err
	}
	agent := tr.Agent()
	drl, err := agent.Scheduler()
	if err != nil {
		return nil, err
	}
	ref, err := guard.ProbeReference(sys, agent.EnvCfg, 256)
	if err != nil {
		return nil, err
	}
	chain, err := guard.ChainFromSpec(sys, spec.Fallback, agent.EnvCfg.MinFreqFrac)
	if err != nil {
		return nil, err
	}
	kids := &childSpans{}
	wrapped := make([]sched.Scheduler, len(chain))
	for i, s := range chain {
		wrapped[i] = &timedSched{s: s, kids: kids}
	}
	g, err := guard.New(&timedDRL{d: drl, kids: kids}, guard.Config{Env: agent.EnvCfg, Ref: ref}, wrapped...)
	if err != nil {
		return nil, err
	}
	heur, err := guard.ChainFromSpec(sys, "heuristic", agent.EnvCfg.MinFreqFrac)
	if err != nil {
		return nil, err
	}
	rs := &replayStack{sys: sys, guard: g, kids: kids, heur: heur[0], bw: make([]float64, sys.N())}
	for i, t := range sys.Traces {
		rs.bw[i] = t.Summary().Mean
	}
	return rs, nil
}

// serveLayers runs the serving layer probes and the in-process replay,
// and reports the serving per-layer metrics. clientP50us is the workload's
// client-observed median request latency.
func serveLayers(out *outcome, tr *tracer, spec server.TenantSpec, bodies [][]byte, kept []*server.DecideResponse, batch int, clientP50us float64) {
	rec := tr.recorder()
	const probes = 2000

	// Wire layers: the strict decode of the workload's own bodies, and the
	// encode of the responses it received (as the handler's writeJSON does).
	for i := 0; i < probes; i++ {
		s := time.Now()
		if _, err := server.DecodeDecideRequest(bodies[i%len(bodies)]); err != nil {
			out.fail("decode probe: %v", err)
			return
		}
		rec.add(int64(i), -1, "server.decode", s, time.Now())
	}
	if len(kept) == 0 {
		out.fail("no responses kept for the encode probe")
		return
	}
	var buf bytes.Buffer
	for i := 0; i < probes; i++ {
		buf.Reset()
		s := time.Now()
		if err := json.NewEncoder(&buf).Encode(kept[i%len(kept)]); err != nil {
			out.fail("encode probe: %v", err)
			return
		}
		rec.add(int64(i), -1, "server.encode", s, time.Now())
	}

	// Guard replay: the audit fills over the first DefaultAuditCap
	// decisions (cold), then evicts on every decision (warm).
	rs, err := newReplayStack(spec)
	if err != nil {
		out.fail("replay stack: %v", err)
		return
	}
	const warm = 2048
	clock := 0.0
	for k := 0; k < guard.DefaultAuditCap+warm; k++ {
		name := "guard.decide.cold"
		if k >= guard.DefaultAuditCap {
			name = "guard.decide"
			if k == guard.DefaultAuditCap && rs.guard.Audit().Len() != guard.DefaultAuditCap {
				out.fail("replay audit holds %d records after %d decisions, want the cap %d", rs.guard.Audit().Len(), k, guard.DefaultAuditCap)
			}
		}
		ctx := sched.Context{Sys: rs.sys, Clock: clock, Iter: k}
		s := time.Now()
		plan, err := rs.guard.Frequencies(ctx)
		e := time.Now()
		if err != nil {
			out.fail("replay decision %d: %v", k, err)
			return
		}
		parent := rec.add(int64(k), -1, name, s, e)
		rs.kids.flush(rec, int64(k), parent)

		s = time.Now()
		_, ok := rs.guard.Audit().Last()
		rec.add(int64(k), -1, "guard.audit_last", s, time.Now())
		if !ok {
			out.fail("replay audit empty after decision %d", k)
			return
		}
		s = time.Now()
		_, err = sched.PlanCost(rs.sys, rs.bw, plan)
		rec.add(int64(k), -1, "sched.plan_cost", s, time.Now())
		if err != nil {
			out.fail("plan cost: %v", err)
			return
		}
		s = time.Now()
		_, err = rs.heur.Frequencies(ctx)
		rec.add(int64(k), -1, "sched.heuristic.direct", s, time.Now())
		if err != nil {
			out.fail("heuristic: %v", err)
			return
		}
		clock += 10 // the daemon's default tick: one bandwidth slot
	}

	st := tr.stats()
	const us = 1e3
	out.layers["server.decode_us"] = st.medianDur("server.decode", us)
	out.layers["server.encode_us"] = st.medianDur("server.encode", us)
	out.layers["guard.decide_us"] = st.medianDur("guard.decide", us)
	out.layers["guard.self_us"] = st.medianSelf("guard.decide", us)
	out.layers["guard.self_cold_us"] = st.medianSelf("guard.decide.cold", us)
	out.layers["guard.audit_last_us"] = st.medianDur("guard.audit_last", us)
	out.layers["sched.drl_us"] = st.medianDur("sched.drl", us)
	out.layers["sched.heuristic_us"] = st.medianDur("sched.heuristic.direct", us)
	out.layers["sched.plan_cost_us"] = st.medianDur("sched.plan_cost", us)
	out.layers["server.unattributed_us"] = clientP50us -
		(out.layers["server.decode_us"] + float64(batch)*out.layers["guard.decide_us"] + out.layers["server.encode_us"])
}
