package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// runOpts is what one workload pass is asked to do.
type runOpts struct {
	// seed derives every generated input of the pass.
	seed int64
	// seconds is the timed phase's budget; the pass stops at the first
	// whole round boundary after it.
	seconds float64
	// trace records spans in alternating chunks of the timed phase and
	// runs the layer probes, so the pass reports per-layer metrics and
	// the tracing overhead.
	trace bool
	// short runs one set-up and a small timed phase: the per-layer figures
	// of a workload other than the one a traced run was asked for.
	short bool
	// small shrinks the workload's problem size for the benchmark's own
	// tests (fewer episodes per training run, a smaller fleet).
	small bool
	// workdir receives temporary files (checkpoints) and span dumps.
	workdir string
}

// outcome is one workload pass's result.
type outcome struct {
	attempted, failed int64
	// problems lists every failed output check; empty means correct.
	problems []string
	// e2e holds the end-to-end metrics (values in their units) and the
	// tail figures that go with them (p99 and its sample count).
	e2e map[string]float64
	// layers holds the per-layer metrics (traced passes only).
	layers map[string]float64
	// info holds reference figures printed to standard error only
	// (eval_cost and the max-frequency plan's cost).
	info map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, info: map[string]float64{}}
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...interface{}) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// check records err, when non-nil, as a failed output check.
func (o *outcome) check(err error) {
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

// medianOf returns the median of xs, NaN when empty.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted is the linearly interpolated p-quantile of sorted xs.
func quantileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the steadiness mode's spreads match figures
// computed from the same runs with Python.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	out := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// op is one timed operation: the work it did (decisions, transitions or
// rounds) and its latency in ms. A failed operation did no work and has an
// infinite latency: it misses any latency limit.
type op struct {
	work, ms float64
}

// phaseFigures records a timed phase's end-to-end figures: throughput is
// the operations' work over the busy time, and the latency percentiles are
// over every operation. It fails a full run whose p90 would rest on fewer
// than 10 samples beyond it.
func phaseFigures(out *outcome, o runOpts, ops []op, busy time.Duration) {
	work := 0.0
	lat := make([]float64, len(ops))
	for i, op := range ops {
		work += op.work
		lat[i] = op.ms
	}
	sort.Float64s(lat)
	out.e2e["throughput_per_s"] = work / busy.Seconds()
	out.e2e["p50_ms"] = quantileSorted(lat, 0.50)
	out.e2e["p90_ms"] = quantileSorted(lat, 0.90)
	// Reference figures, printed with the pass but not reported.
	out.e2e["p99_ms"] = quantileSorted(lat, 0.99)
	out.e2e["latency_samples"] = float64(len(lat))
	if len(lat) < 100 && !o.short && !o.small {
		out.fail("only %d latency samples; p90 needs at least 10 beyond it", len(lat))
	}
}

// heapSampler tracks the Go heap in use (live and not yet swept objects)
// during a timed phase. It reads runtime/metrics, which does not stop the
// world, every 5 ms. The heap in use climbs from one collection to the
// next, so the sampler keeps the highest reading of each GC cycle, and the
// phase's peak is the 90th percentile of the cycles' peaks: the height the
// heap reaches in nine cycles of ten. How high one cycle lets the heap
// climb depends on how much was allocated during its concurrent mark,
// which the host's speed sets, so the single highest reading of a serving
// phase's thousand cycles moved by up to 8% between identical runs; the
// 90th percentile moved by under 2% on every workload, the median by up
// to 9% in training, whose first cycles climb while the trainer's heap
// grows. A phase without a collection (the fleet allocates nothing once
// built) is one window.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []metrics.Sample
	peaks   []float64 // highest reading of each finished cycle, bytes
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		stop: make(chan struct{}), done: make(chan struct{}),
		samples: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}},
		peaks:   make([]float64, 0, 1024),
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		cur, cycle := h.reading()
		for {
			select {
			case <-h.stop:
				// A cycle cut short by the end of the phase is dropped,
				// unless no cycle finished.
				if len(h.peaks) == 0 {
					v, _ := h.reading()
					h.peaks = append(h.peaks, max(cur, v))
				}
				return
			case <-t.C:
				v, c := h.reading()
				if c != cycle {
					h.peaks = append(h.peaks, cur)
					cur, cycle = v, c
				} else {
					cur = max(cur, v)
				}
			}
		}
	}()
	return h
}

// reading reads the bytes of heap objects and the number of finished GC
// cycles. Only the sampler's goroutine calls it.
func (h *heapSampler) reading() (bytes float64, cycles uint64) {
	metrics.Read(h.samples)
	if h.samples[0].Value.Kind() == metrics.KindUint64 {
		bytes = float64(h.samples[0].Value.Uint64())
	}
	if h.samples[1].Value.Kind() == metrics.KindUint64 {
		cycles = h.samples[1].Value.Uint64()
	}
	return bytes, cycles
}

// stopMB stops the sampler, waits for it and returns the 90th percentile
// of the cycle peaks in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	sort.Float64s(h.peaks)
	return quantileSorted(h.peaks, 0.9) / 1e6
}

// settle collects garbage left by set-up so every timed phase starts from
// the same heap state.
func settle() { runtime.GC() }

// span is one traced interval: a call into a layer, timed from outside.
type span struct {
	id     int64 // request / cycle / round the span belongs to
	parent int32 // index of the parent span in the same recorder, -1 for a root
	name   string
	start  int64 // ns since the tracer's origin
	end    int64
}

// tracer hands out span recorders and decides, by time, whether a chunk of
// the timed phase is traced: chunks alternate untraced and traced so the
// two modes see the same host drift, and the overhead is their throughput
// difference.
type tracer struct {
	kind   traceKind
	origin time.Time     // the timed phase's start
	chunk  time.Duration // length of one chunk; even chunks are untraced
	mu     sync.Mutex
	recs   []*recorder
}

// traceKind selects what a tracer records.
type traceKind int

const (
	// traceOff records nothing: the untraced runs end-to-end metrics
	// come from.
	traceOff traceKind = iota
	// traceAlternate traces every other chunk of the timed phase.
	traceAlternate
	// traceAlways traces the whole timed phase (the short passes that
	// only report per-layer figures).
	traceAlways
)

// kindFor picks the tracer kind of a pass.
func kindFor(o runOpts) traceKind {
	switch {
	case o.short:
		return traceAlways
	case o.trace:
		return traceAlternate
	}
	return traceOff
}

func newTracer(kind traceKind, seconds float64) *tracer {
	chunk := time.Duration(seconds / 8 * float64(time.Second))
	if chunk < 50*time.Millisecond {
		chunk = 50 * time.Millisecond
	}
	return &tracer{kind: kind, origin: time.Now(), chunk: chunk}
}

// restart moves the origin to now (the start of the timed phase).
func (t *tracer) restart() { t.origin = time.Now() }

// mode reports whether an operation starting at now falls in a traced
// chunk (1) or an untraced one (0).
func (t *tracer) mode(now time.Time) int {
	switch t.kind {
	case traceAlways:
		return 1
	case traceAlternate:
		return int(now.Sub(t.origin)/t.chunk) % 2
	}
	return 0
}

// ns converts a time to the tracer's clock.
func (t *tracer) ns(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

// recorder is a single goroutine's span buffer.
type recorder struct {
	t     *tracer
	spans []span
}

func (t *tracer) recorder() *recorder {
	r := &recorder{t: t}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// add records a finished span and returns its index.
func (r *recorder) add(id int64, parent int32, name string, start, end time.Time) int32 {
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, start: r.t.ns(start), end: r.t.ns(end)})
	return int32(len(r.spans) - 1)
}

// spanStats is the per-name aggregate of a recorder set: durations and
// self times (duration minus the part covered by child spans), in ns.
type spanStats struct {
	dur, self map[string][]float64
}

func (t *tracer) stats() spanStats {
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			d := float64(s.end - s.start)
			st.dur[s.name] = append(st.dur[s.name], d)
			st.self[s.name] = append(st.self[s.name], d-float64(child[i]))
		}
	}
	return st
}

// medianDur and medianSelf return a span name's median duration or self
// time in the given unit (ns per unit), NaN when no span was recorded.
func (st spanStats) medianDur(name string, unit float64) float64 {
	return medianOf(st.dur[name]) / unit
}

func (st spanStats) medianSelf(name string, unit float64) float64 {
	return medianOf(st.self[name]) / unit
}

// dump writes every span as CSV (recorder,id,parent,name,start_ns,end_ns)
// to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "recorder,id,parent,name,start_ns,end_ns")
	t.mu.Lock()
	for ri, r := range t.recs {
		for _, s := range r.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", ri, s.id, s.parent, s.name, s.start, s.end)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// modeCounter accumulates operations per tracing mode for the overhead
// figure: throughput in traced chunks against untraced ones.
type modeCounter struct {
	ops [2]float64
}

// overheadPct turns per-mode operation counts over a timed phase of the
// given length into the traced throughput's shortfall, in percent of the
// untraced throughput. Chunks alternate, so each mode owns the time of its
// chunks.
func (t *tracer) overheadPct(mc *modeCounter, elapsed time.Duration) float64 {
	var time0, time1 time.Duration
	for start := time.Duration(0); start < elapsed; start += t.chunk {
		d := t.chunk
		if start+d > elapsed {
			d = elapsed - start
		}
		if int(start/t.chunk)%2 == 0 {
			time0 += d
		} else {
			time1 += d
		}
	}
	if time0 <= 0 || time1 <= 0 || mc.ops[0] == 0 {
		return math.NaN()
	}
	r0 := mc.ops[0] / time0.Seconds()
	r1 := mc.ops[1] / time1.Seconds()
	return (r0 - r1) / r0 * 100
}
