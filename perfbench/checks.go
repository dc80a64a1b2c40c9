package main

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/hier"
	"repro/internal/server"
)

// The output checks. Each compares what the program returned against a
// value computed apart from it, or against a property the method must
// have, and returns an error naming the first violation. The benchmark's
// tests corrupt one value at a time and expect every check to fail.

// planBounds is one tenant's action box [MinFreqFrac·δᵢᵐᵃˣ, δᵢᵐᵃˣ], built
// from a separately generated testbed scenario.
type planBounds struct {
	floor, max []float64
}

func boundsFor(seed int64, n int) (planBounds, error) {
	sc := experiments.TestbedScenario(seed)
	sc.N = n
	sys, err := sc.Build()
	if err != nil {
		return planBounds{}, err
	}
	frac := env.DefaultConfig().MinFreqFrac
	b := planBounds{floor: make([]float64, n), max: make([]float64, n)}
	for i, d := range sys.Devices {
		b.floor[i] = frac * d.MaxFreqHz
		b.max[i] = d.MaxFreqHz
	}
	return b, nil
}

// checkPlan checks one plan against the tenant's action box.
func checkPlan(plan []float64, b planBounds) error {
	if len(plan) != len(b.max) {
		return fmt.Errorf("plan has %d entries for %d devices", len(plan), len(b.max))
	}
	for i, f := range plan {
		if !(f >= b.floor[i] && f <= b.max[i]) {
			return fmt.Errorf("device %d frequency %v outside [%v, %v]", i, f, b.floor[i], b.max[i])
		}
	}
	return nil
}

// checkDecide checks a decide response carrying count decisions.
func checkDecide(r *server.DecideResponse, count int, b planBounds) error {
	if r.Count != count {
		return fmt.Errorf("response count %d, requested %d", r.Count, count)
	}
	if count > 1 {
		if len(r.Plans) != count {
			return fmt.Errorf("batch response carries %d plans, want %d", len(r.Plans), count)
		}
		for k, p := range r.Plans {
			if err := checkPlan(p, b); err != nil {
				return fmt.Errorf("plan %d: %w", k, err)
			}
		}
		last := r.Plans[count-1]
		for i := range last {
			if len(r.Freqs) != len(last) || r.Freqs[i] != last[i] {
				return fmt.Errorf("freqs %v differ from the batch's final plan %v", r.Freqs, last)
			}
		}
	} else if len(r.Plans) != 0 {
		return fmt.Errorf("single decision carries %d batch plans", len(r.Plans))
	}
	if err := checkPlan(r.Freqs, b); err != nil {
		return err
	}
	switch r.Layer {
	case "drl", "heuristic":
	case "maxfreq":
		for i, f := range r.Freqs {
			if f != b.max[i] {
				return fmt.Errorf("maxfreq plan device %d at %v, want δmax %v", i, f, b.max[i])
			}
		}
	default:
		return fmt.Errorf("unknown serving layer %q", r.Layer)
	}
	switch r.Mode {
	case "guarded", "heuristic", "maxfreq":
	default:
		return fmt.Errorf("unknown ladder mode %q", r.Mode)
	}
	if r.Iter < 0 {
		return fmt.Errorf("negative decision index %d", r.Iter)
	}
	return nil
}

// decisionSet records which of one tenant's decision indices the
// responses covered, one bit per decision, and the first index covered
// twice (-1 while none is).
type decisionSet struct {
	bits    []uint64
	overlap int
}

func newDecisionSet(capacity int) *decisionSet {
	return &decisionSet{bits: make([]uint64, 0, (capacity+63)/64), overlap: -1}
}

func (d *decisionSet) grow(words int) {
	for len(d.bits) < words {
		d.bits = append(d.bits, 0)
	}
}

// add records the range [iter, iter+count) of one response.
func (d *decisionSet) add(iter, count int) {
	d.grow((iter + count + 63) / 64)
	for i := iter; i < iter+count; i++ {
		m := uint64(1) << (i % 64)
		if d.bits[i/64]&m != 0 && d.overlap < 0 {
			d.overlap = i
		}
		d.bits[i/64] |= m
	}
}

// merge folds another connection's record of the same tenant into d.
func (d *decisionSet) merge(o *decisionSet) {
	d.grow(len(o.bits))
	for w, b := range o.bits {
		if both := d.bits[w] & b; both != 0 && d.overlap < 0 {
			d.overlap = w*64 + bits.TrailingZeros64(both)
		}
		d.bits[w] |= b
	}
	if d.overlap < 0 {
		d.overlap = o.overlap
	}
}

// checkTiling checks that a tenant's responses covered [0, decisions)
// with no gap and no overlap.
func checkTiling(d *decisionSet, decisions int) error {
	if d.overlap >= 0 {
		return fmt.Errorf("decision %d was served by two responses", d.overlap)
	}
	for w, b := range d.bits {
		for j := 0; j < 64; j++ {
			i, set := w*64+j, b&(1<<j) != 0
			if i < decisions && !set {
				return fmt.Errorf("no response covered decision %d of %d", i, decisions)
			}
			if i >= decisions && set {
				return fmt.Errorf("a response covered decision %d, beyond the tenant's %d", i, decisions)
			}
		}
	}
	if len(d.bits)*64 < decisions {
		return fmt.Errorf("no response covered decision %d of %d", len(d.bits)*64, decisions)
	}
	return nil
}

// checkDrain checks a drain report: nothing accepted was left unanswered.
func checkDrain(rep *server.DrainReport) error {
	if rep.Dropped != 0 || rep.Accepted != rep.Responded {
		return fmt.Errorf("drain dropped %d (accepted %d, responded %d)", rep.Dropped, rep.Accepted, rep.Responded)
	}
	return nil
}

// checkEpisode checks one training episode's statistics: Algorithm 1
// updates once per full buffer, so after `transitions` transitions exactly
// ⌊transitions/buffer⌋ updates have run; and the reward is the scaled
// negative cost (eq. 13).
func checkEpisode(st core.EpisodeStats, transitions, buffer int, rewardScale float64) error {
	if want := transitions / buffer; st.Updates != want {
		return fmt.Errorf("episode %d: %d updates after %d transitions, want %d", st.Episode, st.Updates, transitions, want)
	}
	got := st.AvgReward * rewardScale
	if !(math.Abs(got+st.AvgCost) <= 1e-9*math.Max(1, math.Abs(st.AvgCost))) {
		return fmt.Errorf("episode %d: reward×scale %v is not −cost %v", st.Episode, got, -st.AvgCost)
	}
	return nil
}

// checkSameAgent checks that a later training run of the run's seed
// trained the same agent, byte for byte, as the first: training is
// deterministic per seed.
func checkSameAgent(round int, agent, first []byte) error {
	if !bytes.Equal(agent, first) {
		return fmt.Errorf("round %d trained a different agent than round 0 from the same seed", round)
	}
	return nil
}

// checkResumedAgent checks that the last checkpoint reloads to the agent
// the training run ended with, byte for byte.
func checkResumedAgent(resumed, trained []byte) error {
	if !bytes.Equal(resumed, trained) {
		return fmt.Errorf("the last checkpoint resumes to a different agent")
	}
	return nil
}

// checkCheckpointEpisode checks that the last checkpoint was taken after
// the training run's last episode.
func checkCheckpointEpisode(episode, episodes int) error {
	if episode != episodes {
		return fmt.Errorf("last checkpoint is at episode %d, want %d", episode, episodes)
	}
	return nil
}

// checkCheckpointCount checks the number of checkpoints written: a
// training run snapshots every CheckpointEvery episodes and after its
// last, so ⌈episodes/CheckpointEvery⌉ per run.
func checkCheckpointCount(checkpoints, runs, episodes int) error {
	if want := runs * ((episodes + core.DefaultCheckpointEvery - 1) / core.DefaultCheckpointEvery); checkpoints != want {
		return fmt.Errorf("%d checkpoints written in %d training runs of %d episodes, want %d", checkpoints, runs, episodes, want)
	}
	return nil
}

// checkEvalCost checks that the trained agent's mean cost beats the
// max-frequency plan's on the same start times — the point of training.
func checkEvalCost(agent, maxFreq float64) error {
	if !(agent < maxFreq) {
		return fmt.Errorf("trained agent's eval cost %v is not below the max-frequency plan's %v", agent, maxFreq)
	}
	return nil
}

// checkRound checks one committed hierarchical round: the cost identity,
// the participant count against cohort sizes computed from the topology,
// and the accounting of every region's update.
func checkRound(g hier.GlobalStats, lambda float64, cohort []int, regions, minArrivals int) error {
	want := g.Duration + lambda*(g.ComputeEnergy+g.TxEnergy)
	if !(math.Abs(g.Cost-want) <= 1e-12*math.Max(1, math.Abs(want))) {
		return fmt.Errorf("round %d: cost %v, want duration+λ·energy %v", g.Index, g.Cost, want)
	}
	if g.Dispatched < 0 || g.Dispatched > regions {
		return fmt.Errorf("round %d: %d regions dispatched of %d", g.Index, g.Dispatched, regions)
	}
	if g.Index == 0 && g.Dispatched != regions {
		return fmt.Errorf("round 0 dispatched %d regions, want all %d", g.Dispatched, regions)
	}
	lo, hi := cohort[0], cohort[0]
	for _, c := range cohort {
		lo, hi = min(lo, c), max(hi, c)
	}
	if g.Participants < lo*g.Dispatched || g.Participants > hi*g.Dispatched || (lo == hi && g.Participants != lo*g.Dispatched) {
		return fmt.Errorf("round %d: %d participants from %d regions with cohorts of %d..%d devices", g.Index, g.Participants, g.Dispatched, lo, hi)
	}
	if g.OnTime+g.StaleApplied < minArrivals {
		return fmt.Errorf("round %d: committed on %d arrivals, want at least %d", g.Index, g.OnTime+g.StaleApplied, minArrivals)
	}
	if g.OnTime+g.StaleApplied+g.Late != regions {
		return fmt.Errorf("round %d: on-time %d + stale %d + late %d != %d regions", g.Index, g.OnTime, g.StaleApplied, g.Late, regions)
	}
	return nil
}

// cohortSizes computes every region's cohort size from the topology and
// the cohort fraction, the way the sampling rule states it: the rounded
// fraction of the region, at least one device, at most the region.
func cohortSizes(top hier.Topology, frac float64) []int {
	out := make([]int, top.Regions())
	for r := range out {
		size := top.Size(r)
		c := size
		if frac < 1 {
			c = int(math.Round(frac * float64(size)))
			c = max(1, min(c, size))
		}
		out[r] = c
	}
	return out
}

// checkFlatIdentity checks that a degenerate hierarchical round (one
// region, full cohort, full barrier) reproduces the flat simulator's
// iteration bit for bit.
func checkFlatIdentity(h hier.GlobalStats, f fl.IterationStats) error {
	if h.Index != f.Index || h.StartTime != f.StartTime || h.Duration != f.Duration ||
		h.ComputeEnergy != f.ComputeEnergy || h.TxEnergy != f.TxEnergy || h.Cost != f.Cost {
		return fmt.Errorf("degenerate hier round %d diverges from the flat simulator: hier (t=%v T=%v Ec=%v Et=%v C=%v) flat (t=%v T=%v Ec=%v Et=%v C=%v)",
			h.Index, h.StartTime, h.Duration, h.ComputeEnergy, h.TxEnergy, h.Cost,
			f.StartTime, f.Duration, f.ComputeEnergy, f.TxEnergy, f.Cost)
	}
	return nil
}
