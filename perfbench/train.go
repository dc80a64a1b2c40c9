package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sched"
)

// Training workload shape: fltrain's defaults on the testbed scenario —
// N=3, a joint 64×64 actor, PPO, a 256-transition buffer, sequential
// rollout, a single-threaded update, the TrainConfig reward calibration
// and crash-safe checkpoints every 25 episodes.
const (
	// trainEpisodes is one training run, fltrain's default -episodes.
	trainEpisodes = 300
	// trainSetups is how many times a run builds the trainer; setup_s is
	// their median (one build takes a few milliseconds).
	trainSetups = 15
)

// evalStarts are the fixed start times eval_cost is measured from, with
// evalIters iterations each.
var evalStarts = []float64{0, 1000, 2000}

const evalIters = 100

// trainScenarioSeed fixes the testbed scenario (devices and traces) the
// agent trains on; --seed drives the training run itself.
const trainScenarioSeed = 1

// buildTrainer is the timed set-up: scenario build, the TrainConfig
// calibration and core.NewTrainer.
func buildTrainer(seed int64, episodes int, ckpt string) (*fl.System, core.Config, *core.Trainer, error) {
	sys, err := experiments.TestbedScenario(trainScenarioSeed).Build()
	if err != nil {
		return nil, core.Config{}, nil, err
	}
	cfg, err := experiments.TrainConfig(sys, experiments.TrainOptions{
		Episodes: episodes, Hidden: []int{64, 64}, Arch: core.ArchJoint, Seed: seed,
	})
	if err != nil {
		return nil, core.Config{}, nil, err
	}
	cfg.Checkpoint = ckpt
	tr, err := core.NewTrainer(sys, cfg)
	return sys, cfg, tr, err
}

// evalCost is a scheduler's mean per-iteration cost (eq. 9) over the fixed
// start times.
func evalCost(sys *fl.System, s sched.Scheduler) (float64, error) {
	sum := 0.0
	for _, st := range evalStarts {
		res, err := core.Evaluate(sys, []sched.Scheduler{s}, st, evalIters)
		if err != nil {
			return 0, err
		}
		sum += res[0].MeanCost
	}
	return sum / float64(len(evalStarts)), nil
}

func runTrain(o runOpts) *outcome {
	out := newOutcome()
	episodes := trainEpisodes
	if o.small {
		episodes = 20
	}
	dir, err := os.MkdirTemp(o.workdir, "train-")
	if err != nil {
		out.fail("temp dir: %v", err)
		return out
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "train.ckpt")

	setups := trainSetups
	if o.short {
		setups = 1
	}
	var (
		sys    *fl.System
		cfg    core.Config
		first  *core.Trainer
		setupS []float64
	)
	for k := 0; k < setups; k++ {
		settle() // every set-up starts from the same heap state
		t0 := time.Now()
		s, c, tr, err := buildTrainer(o.seed, episodes, ckpt)
		if err != nil {
			out.fail("set-up: %v", err)
			return out
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		sys, cfg, first = s, c, tr
	}
	out.e2e["setup_s"] = medianOf(setupS)

	seconds := o.seconds
	if o.short {
		seconds = 0
	}
	const cycleTransitions = 256
	if cfg.BufferSize != cycleTransitions {
		out.fail("buffer holds %d transitions, the workload is defined for %d", cfg.BufferSize, cycleTransitions)
		return out
	}
	tr := newTracer(kindFor(o), seconds)
	rec := tr.recorder()
	mc := &modeCounter{}
	var (
		cycles               []op
		updates, transitions int
		checkpoints, rounds  int
		lastCk               os.FileInfo // the checkpoint file last seen
		agent0               []byte
	)
	settle()
	heap := startHeapSampler()
	tr.restart()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; ; round++ {
		trainer := first
		if round > 0 {
			if trainer, err = core.NewTrainer(sys, cfg); err != nil {
				out.fail("round %d trainer: %v", round, err)
				break
			}
		}
		var (
			cycleStart, epStart = time.Now(), time.Now()
			lastUpdates         int
			kids                childSpans
			cycleID             = int64(round) << 32
		)
		_, runErr := trainer.Run(func(st core.EpisodeStats) {
			now := time.Now()
			roundTransitions := (st.Episode + 1) * cfg.Env.EpisodeLen
			transitions += cfg.Env.EpisodeLen
			if err := checkEpisode(st, roundTransitions, cfg.BufferSize, cfg.Env.RewardScale); err != nil && len(out.problems) < 8 {
				out.fail("round %d: %v", round, err)
			}
			// Checkpoints are written after the callback; each commit
			// renames a fresh file into place, so a changed file identity
			// since the previous episode means one more snapshot landed.
			if fi, err := os.Stat(ckpt); err == nil {
				if lastCk == nil || !os.SameFile(fi, lastCk) {
					checkpoints++
				}
				lastCk = fi
			}
			traced := tr.mode(cycleStart) == 1
			name := "core.episode"
			if st.Updates > lastUpdates {
				name = "core.episode.update"
			}
			if traced {
				kids.add(name, epStart, now)
			}
			if st.Updates > lastUpdates {
				updates += st.Updates - lastUpdates
				lastUpdates = st.Updates
				cycles = append(cycles, op{cycleTransitions, float64(now.Sub(cycleStart)) / 1e6})
				mc.ops[tr.mode(cycleStart)] += cycleTransitions
				out.attempted++
				if traced {
					cycleID++
					kids.flush(rec, cycleID, rec.add(cycleID, -1, "core.cycle", cycleStart, now))
				}
				cycleStart = now
			}
			epStart = now
		})
		if fi, err := os.Stat(ckpt); err == nil && (lastCk == nil || !os.SameFile(fi, lastCk)) {
			checkpoints++
			lastCk = fi
		}
		if runErr != nil {
			// The update cycle in progress when the run failed is a
			// failed operation.
			out.attempted++
			out.failed++
			out.fail("round %d: %v", round, runErr)
		} else {
			rounds++
			bin, err := trainer.Agent().MarshalBinary()
			if err != nil {
				out.fail("agent encode: %v", err)
			} else if round == 0 {
				agent0 = bin
				trainChecks(out, sys, cfg, trainer, bin, ckpt, episodes)
			} else {
				out.check(checkSameAgent(round, bin, agent0))
			}
		}
		if o.short || !time.Now().Before(deadline) {
			break
		}
	}
	elapsed := time.Since(tr.origin)
	out.e2e["peak_heap_mb"] = heap.stopMB()
	out.check(checkCheckpointCount(checkpoints, rounds, episodes))

	if len(cycles) == 0 {
		out.fail("no update cycle completed")
		return out
	}
	// Throughput counts training time only: the cycles, not the trainer
	// builds and end-of-run checks between training runs.
	busy := 0.0
	for _, c := range cycles {
		busy += c.ms
	}
	phaseFigures(out, o, cycles, time.Duration(busy*1e6))

	if tr.kind != traceOff {
		const ms = 1e6
		st := tr.stats()
		rollout := st.medianDur("core.episode", ms)
		out.layers["core.rollout_ms"] = rollout * cycleTransitions / float64(cfg.Env.EpisodeLen)
		out.layers["core.update_ms"] = st.medianDur("core.episode.update", ms) - rollout
		out.layers["core.updates"] = float64(updates)
		out.layers["core.transitions"] = float64(transitions)
		out.layers["core.checkpoints"] = float64(checkpoints)
		if tr.kind == traceAlternate {
			out.layers["bench.trace_overhead_pct"] = tr.overheadPct(mc, elapsed)
		}
		trainLayers(out, tr, rec, sys, cfg, first, filepath.Join(dir, "probe.ckpt"), o.seed)
		if err := tr.dump(spanPath(o, "train-ppo")); err != nil {
			out.fail("write spans: %v", err)
		}
	}
	return out
}

// trainChecks runs the end-of-training checks on the first round: the last
// checkpoint resumes to the same agent, the periodic snapshot landed at the
// last episode, and the trained agent beats the max-frequency plan.
func trainChecks(out *outcome, sys *fl.System, cfg core.Config, trainer *core.Trainer, agent []byte, ckpt string, episodes int) {
	ck, err := core.LoadCheckpoint(ckpt)
	if err != nil {
		out.fail("last checkpoint: %v", err)
		return
	}
	out.check(checkCheckpointEpisode(ck.Episode, episodes))
	resumed, err := core.ResumeTrainer(sys, cfg, ckpt)
	if err != nil {
		out.fail("resume: %v", err)
		return
	}
	bin, err := resumed.Agent().MarshalBinary()
	if err != nil {
		out.fail("resumed agent encode: %v", err)
	} else {
		out.check(checkResumedAgent(bin, agent))
	}

	drl, err := trainer.Agent().Scheduler()
	if err != nil {
		out.fail("agent scheduler: %v", err)
		return
	}
	got, err := evalCost(sys, drl)
	if err != nil {
		out.fail("evaluate agent: %v", err)
		return
	}
	maxCost, err := evalCost(sys, sched.MaxFreq{})
	if err != nil {
		out.fail("evaluate max-frequency plan: %v", err)
		return
	}
	out.info["eval_cost"] = got
	out.info["maxfreq_cost"] = maxCost
	if episodes == trainEpisodes {
		out.check(checkEvalCost(got, maxCost))
	}
}

// trainLayers times the training layers' public calls directly: GAE over a
// full buffer, a PPO update on a batch of the workload's shape, the
// environment step, the flat simulator's iteration, the upload solve, and
// the crash-safe checkpoint.
func trainLayers(out *outcome, tr *tracer, rec *recorder, sys *fl.System, cfg core.Config, trainer *core.Trainer, probeCkpt string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	e, err := env.New(sys, cfg.Env, rng)
	if err != nil {
		out.fail("probe env: %v", err)
		return
	}
	pol := rl.NewGaussianPolicy(e.StateDim(), e.ActionDim(), cfg.Hidden, cfg.InitStd, rng)
	critic := nn.NewMLP(append(append([]int{e.StateDim()}, cfg.Hidden...), 1), nn.Tanh, nn.Identity, rng)
	ppo, err := rl.NewPPO(cfg.PPO, pol, critic, rng)
	if err != nil {
		out.fail("probe PPO: %v", err)
		return
	}
	buf := rl.NewBuffer(cfg.BufferSize)
	state, err := e.Reset()
	if err != nil {
		out.fail("probe reset: %v", err)
		return
	}
	for !buf.Full() {
		a, logp := pol.Sample(state, rng)
		v := ppo.Value(state)
		stored := state.Clone()
		s := time.Now()
		res, err := e.StepInto(a)
		rec.add(0, -1, "env.step", s, time.Now())
		if err != nil {
			out.fail("probe step: %v", err)
			return
		}
		buf.Add(rl.Transition{State: stored, Action: a.Clone(), Reward: res.Reward, LogProb: logp, Value: v, Done: res.Done})
		state = res.State
		if res.Done {
			if state, err = e.Reset(); err != nil {
				out.fail("probe reset: %v", err)
				return
			}
		}
	}
	batch := &rl.Batch{}
	for i := 0; i < 200; i++ {
		s := time.Now()
		rl.MakeBatchInto(batch, buf, 0, cfg.PPO.Gamma, cfg.PPO.Lambda)
		rec.add(int64(i), -1, "rl.make_batch", s, time.Now())
	}
	for i := 0; i < 5; i++ {
		rl.MakeBatchInto(batch, buf, 0, cfg.PPO.Gamma, cfg.PPO.Lambda)
		s := time.Now()
		_, err := ppo.Update(batch)
		rec.add(int64(i), -1, "rl.ppo_update", s, time.Now())
		if err != nil {
			out.fail("probe update: %v", err)
			return
		}
	}

	ses, err := fl.NewSession(sys, 0)
	if err != nil {
		out.fail("probe session: %v", err)
		return
	}
	freqs := make([]float64, sys.N())
	for i, d := range sys.Devices {
		freqs[i] = 0.6 * d.MaxFreqHz
	}
	for i := 0; i < 2000; i++ {
		s := time.Now()
		_, err := ses.StepInto(freqs)
		rec.add(int64(i), -1, "fl.iteration", s, time.Now())
		if err != nil {
			out.fail("probe iteration: %v", err)
			return
		}
	}
	uploadFinishProbe(out, rec, sys.Traces[0], sys.ModelBytes)

	for i := 0; i < 5; i++ {
		s := time.Now()
		err := trainer.SaveCheckpoint(probeCkpt)
		rec.add(int64(i), -1, "core.checkpoint", s, time.Now())
		if err != nil {
			out.fail("probe checkpoint: %v", err)
			return
		}
	}

	st := tr.stats()
	out.layers["rl.make_batch_us"] = st.medianDur("rl.make_batch", 1e3)
	out.layers["rl.ppo_update_ms"] = st.medianDur("rl.ppo_update", 1e6)
	out.layers["env.step_us"] = st.medianDur("env.step", 1e3)
	out.layers["fl.iteration_us"] = st.medianDur("fl.iteration", 1e3)
	out.layers["core.checkpoint_ms"] = st.medianDur("core.checkpoint", 1e6)
	out.layers["trace.upload_finish_ns"] = st.medianDur("trace.upload_finish.x1000", 1e3)
}

// spanPath names the span dump of a traced pass.
func spanPath(o runOpts, name string) string {
	return filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.csv", name, o.seed))
}
