package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/guard"
	"repro/internal/server"
)

// Serving workload shape: 4 tenants of N=3 with the fresh primary and
// consecutive seeds, behind a real loopback listener, loaded by a closed
// loop of 2 client connections that go round-robin over the tenants. The
// tenants are the fixed deployment under test (seeds 1..4); the run's seed
// draws each client's round-robin order, so every tenant's own decision
// stream — and with it the guard and ladder work — is the same in every
// run, and only the interleaving across tenants differs.
const (
	serveTenants = 4
	serveN       = 3
	serveClients = 2
	// warmBatch is the decisions per warm-up request (both workloads warm
	// up the same way).
	warmBatch = 16
	// warmRequests is each client's requests per tenant per warm-up block:
	// one block gives every tenant 2·16·16 = 512 decisions.
	warmRequests = 16
	// serveSetups is how many times a full run builds the daemon and warms
	// it up; setup_s is their median.
	serveSetups = 3
	// maxRequestsPerSec is the request rate per client the clients'
	// off-heap records are sized for, more than ten times the rate of
	// either workload on the 2-vCPU development host. A client that would
	// outgrow its latency record stops and fails the run's checks rather
	// than grow a buffer on the heap while it is measured.
	maxRequestsPerSec = 100_000
)

// warmBlocks is the least number of warm-up blocks that can fill every
// audit, and the most a warm-up sends is four times that.
func warmBlocks() int {
	perBlock := serveClients * warmRequests * warmBatch
	return (guard.DefaultAuditCap + perBlock - 1) / perBlock
}

func tenantSpecs() []server.TenantSpec {
	specs := make([]server.TenantSpec, serveTenants)
	for i := range specs {
		specs[i] = server.TenantSpec{
			Name:    fmt.Sprintf("bench-%d", i),
			N:       serveN,
			Seed:    int64(i + 1),
			Primary: server.PrimaryFresh,
		}
	}
	return specs
}

// decideBody is the wire body a client sends for one request.
func decideBody(tenant string, count int) []byte {
	req := server.DecideRequest{Tenant: tenant}
	if count > 1 {
		req.Count = count
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of strings and ints always encodes
	}
	return b
}

// daemon is an in-process flserver: server.New plus Server.Handler behind
// a loopback listener.
type daemon struct {
	srv   *server.Server
	hs    *http.Server
	url   string
	done  chan error
	regMS []float64 // Server.Register time per tenant
}

func startDaemon(specs []server.TenantSpec) (*daemon, error) {
	srv, err := server.New(server.DefaultServerConfig())
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, done: make(chan error, 1)}
	for _, sp := range specs {
		t0 := time.Now()
		if _, err := srv.Register(sp); err != nil {
			return nil, err
		}
		d.regMS = append(d.regMS, float64(time.Since(t0))/1e6)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs = &http.Server{Handler: srv.Handler()}
	d.url = "http://" + ln.Addr().String()
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// drain stops the listener and completes the daemon's graceful drain.
func (d *daemon) drain() (*server.DrainReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.BeginDrain()
	if err := d.hs.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	return d.srv.FinishDrain(ctx)
}

// statsDoc is the part of /v1/stats the benchmark reads.
type statsDoc struct {
	Counters map[string]int64     `json:"counters"`
	Tenants  []server.TenantStats `json:"tenants"`
}

func (d *daemon) stats() (*statsDoc, error) {
	resp, err := http.Get(d.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var doc statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &doc, nil
}

// tenant looks a tenant's row up by name.
func (s *statsDoc) tenant(name string) (server.TenantStats, bool) {
	for _, t := range s.Tenants {
		if t.Name == name {
			return t, true
		}
	}
	return server.TenantStats{}, false
}

// guarded is the number of decisions a tenant's guard has made: the sum
// of its lifetime served counts. The audit holds min(guarded, cap) records.
func guarded(t server.TenantStats) int {
	n := 0
	for _, v := range t.Served {
		n += v
	}
	return n
}

// client is one closed-loop connection: one FL coordinator that sends its
// next request only after the previous plan arrived.
type client struct {
	id     int
	hc     *http.Client
	url    string
	specs  []server.TenantSpec
	bounds []planBounds

	order     []int          // round-robin tenant order, drawn from the run's seed
	tiles     []*decisionSet // per tenant, the decisions responses covered
	lat       []float32      // timed-phase request latencies in µs, +Inf when failed
	attempted int64
	failed    int64
	problems  []string
	keep      bool                     // keep responses for the encode probe
	kept      []*server.DecideResponse // responses kept for the encode probe
	mc        modeCounter
	rec       *recorder
	nextID    int64
	// mem backs lat and the tiles' bitmaps off the Go heap.
	mem []interface{ free() }
}

// newClient makes a client whose latency record holds latCap requests and
// whose coverage bitmaps hold every decision a warm-up and latCap requests
// of batch decisions can reach, all off the Go heap.
func newClient(id int, url string, specs []server.TenantSpec, bounds []planBounds, order []int, latCap, batch int) (*client, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	c := &client{
		id: id, url: url + "/v1/decide", specs: specs, bounds: bounds, order: order,
		hc:    &http.Client{Transport: tr, Timeout: 30 * time.Second},
		tiles: make([]*decisionSet, len(specs)),
	}
	lat, err := newOffHeap[float32](latCap)
	if err != nil {
		return nil, err
	}
	c.mem, c.lat = append(c.mem, lat), lat.buf
	decisions := 4*warmBlocks()*warmRequests*warmBatch + latCap*batch
	for i := range c.tiles {
		bits, err := newOffHeap[uint64]((decisions + 63) / 64)
		if err != nil {
			c.close()
			return nil, err
		}
		c.mem = append(c.mem, bits)
		c.tiles[i] = &decisionSet{bits: bits.buf, overlap: -1}
	}
	return c, nil
}

// close closes the client's connection and unmaps its records; the client
// may not be used afterwards.
func (c *client) close() {
	c.hc.CloseIdleConnections()
	for _, m := range c.mem {
		m.free()
	}
	c.mem, c.lat, c.tiles = nil, nil, nil
}

func (c *client) problem(format string, args ...interface{}) {
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// decide sends one request and checks its response. It returns the time
// from sending the request to having read the whole response, and false
// when the request failed (transport error or non-200).
func (c *client) decide(tenant int, body []byte, count int) (start, end time.Time, ok bool) {
	c.attempted++
	start = time.Now()
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		c.failed++
		if err == nil {
			c.problem("tenant %d: status %d: %s", tenant, resp.StatusCode, bytes.TrimSpace(data))
		} else {
			c.problem("tenant %d: %v", tenant, err)
		}
		return start, end, false
	}
	var r server.DecideResponse
	if err := json.Unmarshal(data, &r); err != nil {
		c.problem("tenant %d: undecodable response: %v", tenant, err)
		return start, end, true
	}
	if err := checkDecide(&r, count, c.bounds[tenant]); err != nil {
		c.problem("tenant %d: %v", tenant, err)
	}
	c.tiles[tenant].add(r.Iter, r.Count)
	if c.keep && len(c.kept) < 64 {
		c.kept = append(c.kept, &r)
	}
	return start, end, true
}

// clientOrders draws the round-robin tenant order from the seed; each
// further client walks the same cycle shifted by an equal share, so the
// clients start on different tenants whatever the seed.
func clientOrders(seed int64) [][]int {
	perm := rand.New(rand.NewSource(seed)).Perm(serveTenants)
	out := make([][]int, serveClients)
	for i := range out {
		out[i] = make([]int, serveTenants)
		for j := range out[i] {
			out[i][j] = perm[(j+i*serveTenants/serveClients)%serveTenants]
		}
	}
	return out
}

// parallel runs fn once per client concurrently and waits for all.
func parallel(cs []*client, fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// tenantSnapshot is a tenant's counters after warm-up; every set-up of one
// run must reproduce it exactly, because each tenant's decision stream is
// serial and its requests are identical.
type tenantSnapshot struct {
	Decisions int
	Mode      string
	Served    map[string]int
	Events    map[string]int
}

type warmSnapshot struct {
	Tenants            []tenantSnapshot
	Decisions          int64
	Degraded           int64
	DegradeTransitions int64
}

// warmUp sends fixed blocks of batch-16 requests until every tenant's
// guard has made at least guard.DefaultAuditCap decisions, so the audit
// is full and evicting before anything is timed.
func warmUp(d *daemon, cs []*client) (*statsDoc, error) {
	bodies := make([][]byte, serveTenants)
	for i, sp := range cs[0].specs {
		bodies[i] = decideBody(sp.Name, warmBatch)
	}
	var last *statsDoc
	minBlocks := warmBlocks()
	for block := 1; block <= 4*minBlocks; block++ {
		parallel(cs, func(c *client) {
			for j := 0; j < warmRequests; j++ {
				for _, t := range c.order {
					c.decide(t, bodies[t], warmBatch)
				}
			}
		})
		if block < minBlocks {
			continue
		}
		st, err := d.stats()
		if err != nil {
			return nil, err
		}
		last = st
		if checkAuditFull(st, cs[0].specs) == nil {
			return st, nil
		}
	}
	var state []string
	for _, t := range last.Tenants {
		state = append(state, fmt.Sprintf("%s: %d decisions, %d guarded, mode %s, served %v", t.Name, t.Decisions, guarded(t), t.Mode, t.Served))
	}
	return nil, fmt.Errorf("warm-up did not fill every tenant's audit in %d blocks: %s", 4*minBlocks, strings.Join(state, "; "))
}

func snapshotOf(st *statsDoc, specs []server.TenantSpec) warmSnapshot {
	ws := warmSnapshot{
		Decisions:          st.Counters["decisions"],
		Degraded:           st.Counters["degraded"],
		DegradeTransitions: st.Counters["degrade_transitions"],
	}
	for _, sp := range specs {
		t, _ := st.tenant(sp.Name)
		ws.Tenants = append(ws.Tenants, tenantSnapshot{Decisions: t.Decisions, Mode: t.Mode, Served: t.Served, Events: t.Events})
	}
	return ws
}

// checkSnapshots checks that every set-up of a run left the tenants in the
// same state after warm-up.
func checkSnapshots(snaps []warmSnapshot) error {
	for k := 1; k < len(snaps); k++ {
		if !reflect.DeepEqual(snaps[k], snaps[0]) {
			return fmt.Errorf("set-up %d's per-tenant counters after warm-up differ from set-up 0's: %+v vs %+v", k, snaps[k], snaps[0])
		}
	}
	return nil
}

// checkAuditFull checks that every tenant's guard has made at least
// guard.DefaultAuditCap decisions, so its audit is full.
func checkAuditFull(st *statsDoc, specs []server.TenantSpec) error {
	for _, sp := range specs {
		t, ok := st.tenant(sp.Name)
		if !ok || guarded(t) < guard.DefaultAuditCap {
			return fmt.Errorf("tenant %s: timing would start with %d guarded decisions, below the audit cap %d", sp.Name, guarded(t), guard.DefaultAuditCap)
		}
	}
	return nil
}

// finishDaemon drains a daemon and runs the end-of-life checks: every
// tenant's responses tile its decision range, and the drain dropped
// nothing.
func finishDaemon(out *outcome, d *daemon, cs []*client) {
	if st, err := d.stats(); err != nil {
		out.fail("final stats: %v", err)
	} else {
		for i, sp := range cs[0].specs {
			t, _ := st.tenant(sp.Name)
			covered := newDecisionSet(0)
			for _, c := range cs {
				covered.merge(c.tiles[i])
			}
			if err := checkTiling(covered, t.Decisions); err != nil {
				out.fail("tenant %s: %v", sp.Name, err)
			}
		}
	}
	for _, c := range cs {
		c.close()
	}
	rep, err := d.drain()
	if err != nil {
		out.fail("drain: %v", err)
		return
	}
	out.check(checkDrain(rep))
}

// runServe runs serve-batch (batch 16) or serve-single (batch 1).
func runServe(o runOpts, batch int) *outcome {
	out := newOutcome()
	specs := tenantSpecs()
	orders := clientOrders(o.seed)
	bounds := make([]planBounds, len(specs))
	for i, sp := range specs {
		b, err := boundsFor(sp.Seed, sp.N)
		if err != nil {
			out.fail("bounds: %v", err)
			return out
		}
		bounds[i] = b
	}

	setups, seconds := serveSetups, o.seconds
	if o.short {
		setups, seconds = 1, 0.5
	}
	latCap := int(seconds*maxRequestsPerSec) + 1024
	var (
		d                         *daemon
		cs                        []*client
		warm                      *statsDoc
		setupS, registerMS, warmS []float64
		snaps                     []warmSnapshot
	)
	for k := 0; k < setups; k++ {
		settle() // every set-up starts from the same heap state
		t0 := time.Now()
		dk, err := startDaemon(specs)
		if err != nil {
			out.fail("start daemon: %v", err)
			return out
		}
		registerMS = append(registerMS, dk.regMS...)
		ck := make([]*client, serveClients)
		for i := range ck {
			if ck[i], err = newClient(i, dk.url, specs, bounds, orders[i], latCap, batch); err != nil {
				out.fail("client: %v", err)
				return out
			}
		}
		w0 := time.Now()
		st, err := warmUp(dk, ck)
		if err != nil {
			out.fail("warm-up: %v", err)
			return out
		}
		warmS = append(warmS, time.Since(w0).Seconds())
		setupS = append(setupS, time.Since(t0).Seconds())
		snaps = append(snaps, snapshotOf(st, specs))
		for _, c := range ck {
			out.attempted += c.attempted
			out.failed += c.failed
			out.problems = append(out.problems, c.problems...)
			c.attempted, c.failed, c.problems = 0, 0, nil
		}
		if k < setups-1 {
			finishDaemon(out, dk, ck)
			continue
		}
		d, cs, warm = dk, ck, st
	}
	out.check(checkSnapshots(snaps))
	// The timed phase must not start before every audit is full.
	out.check(checkAuditFull(warm, specs))
	out.e2e["setup_s"] = medianOf(setupS)
	out.layers["server.register_ms"] = medianOf(registerMS)
	out.layers["server.warmup_s"] = medianOf(warmS)

	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		bodies[i] = decideBody(sp.Name, batch)
	}
	tr := newTracer(kindFor(o), seconds)
	for _, c := range cs {
		c.rec = tr.recorder()
		c.keep, c.kept = tr.kind != traceOff, nil
	}
	settle()
	heap := startHeapSampler()
	tr.restart()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	parallel(cs, func(c *client) {
		for {
			if len(c.lat)+len(c.order) > cap(c.lat) {
				c.problem("latency record full after %d requests (sized for %d requests/s)", len(c.lat), maxRequestsPerSec)
				return
			}
			for _, t := range c.order {
				s, e, ok := c.decide(t, bodies[t], batch)
				if !ok {
					c.lat = append(c.lat, float32(math.Inf(1)))
					continue
				}
				c.lat = append(c.lat, float32(e.Sub(s).Seconds()*1e6))
				m := tr.mode(s)
				c.mc.ops[m] += float64(batch)
				if m == 1 {
					c.nextID++
					c.rec.add(int64(c.id)<<40|c.nextID, -1, "client.request", s, e)
				}
			}
			if !time.Now().Before(deadline) {
				return
			}
		}
	})
	elapsed := time.Since(start)
	out.e2e["peak_heap_mb"] = heap.stopMB()

	var ops []op
	mc := &modeCounter{}
	for _, c := range cs {
		for _, us := range c.lat {
			if math.IsInf(float64(us), 1) {
				ops = append(ops, op{0, math.Inf(1)})
			} else {
				ops = append(ops, op{float64(batch), float64(us) / 1e3})
			}
		}
		out.attempted += c.attempted
		out.failed += c.failed
		out.problems = append(out.problems, c.problems...)
		mc.ops[0] += c.mc.ops[0]
		mc.ops[1] += c.mc.ops[1]
	}
	phaseFigures(out, o, ops, elapsed)

	after, err := d.stats()
	if err != nil {
		out.fail("stats: %v", err)
	} else if o.trace || o.short {
		for _, name := range []string{"requests", "decisions", "degraded", "degrade_transitions"} {
			out.layers["server."+name] = float64(after.Counters[name] - warm.Counters[name])
		}
		var primary, all int
		for _, sp := range specs {
			a, _ := after.tenant(sp.Name)
			w, _ := warm.tenant(sp.Name)
			primary += a.Served["drl"] - w.Served["drl"]
			all += guarded(a) - guarded(w)
		}
		if all > 0 {
			out.layers["guard.primary_ratio"] = float64(primary) / float64(all)
		}
		if tr.kind == traceAlternate {
			out.layers["bench.trace_overhead_pct"] = tr.overheadPct(mc, elapsed)
		}
		var kept []*server.DecideResponse
		for _, c := range cs {
			kept = append(kept, c.kept...)
		}
		serveLayers(out, tr, specs[0], bodies, kept, batch, out.e2e["p50_ms"]*1e3)
		if err := tr.dump(spanPath(o, fmt.Sprintf("serve-%d", batch))); err != nil {
			out.fail("write spans: %v", err)
		}
	}
	finishDaemon(out, d, cs)
	return out
}
