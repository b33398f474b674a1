package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"m3/internal/cluster"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/pathsim"
	"m3/internal/stats"
	"m3/internal/topo"
	"m3/internal/workload"
)

// budget bounds one measured phase: for seconds, or — when ops is set — for
// exactly ops[c] operations by client c (library phases have one "client").
// The A/A check pins the second pass to the first's counts, so that both
// passes run the same ops and counts must repeat exactly.
type budget struct {
	seconds float64
	ops     []int
}

type clock struct {
	bg budget
	t0 time.Time
}

func (bg budget) start() clock { return clock{bg: bg, t0: time.Now()} }

// done reports whether the phase is over for a client that has completed n
// ops.
func (c clock) done(client, n int) bool {
	if c.bg.ops != nil {
		return n >= c.bg.ops[client]
	}
	return time.Since(c.t0).Seconds() >= c.bg.seconds
}

// bench is one invocation's fixed inputs, plus the current run's budget.
type bench struct {
	sz      sizes
	seed    uint64
	ckpt    []byte
	fp      uint64
	clients int

	bg budget
	// pinned, when set, fixes the op counts of the run's i-th measured phase.
	pinned [][]int
}

// phaseBudget is the budget of the run's i-th measured phase: its share of
// the run's seconds, or the pinned op count.
func (b *bench) phaseBudget(i int, share float64) budget {
	if i < len(b.pinned) {
		return budget{ops: b.pinned[i]}
	}
	return budget{seconds: b.bg.seconds * share}
}

// result is one (workload, traced or not) run.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Info carries what a reader needs beside the metrics: sample counts,
	// the tail percentile the sample supports, the first failure.
	Info  map[string]any `json:"info"`
	spans []span
	// phaseOps is the op count per client each measured phase reached, in
	// phase order.
	phaseOps [][]int
}

type workloadDef struct {
	name, why string
	run       func(ctx context.Context, b *bench, traced bool) (*result, error)
}

var workloads = []workloadDef{
	{"cold_sparse_6144h",
		"one caller, library Estimate from raw flows on the 6144-host fabric (~1 flow per path): the only workload with validate+decompose on the blocking path",
		runCold},
	{"sweep_dense_256h",
		"what-if sweep against one m3serve, a distinct config per op on a dense 256-host workload: every op a cache miss, flowSim+featurize dominate, two clients share one pool",
		func(ctx context.Context, b *bench, traced bool) (*result, error) {
			return runServed(ctx, b, sweepPlan(b, "sweep_dense_256h", 1), traced)
		}},
	{"hot_256h",
		"32 pre-warmed keys hit in a seeded shuffle: ~100% cache hits, so only route, decode, admission, cache read, response build and encode are timed",
		func(ctx context.Context, b *bench, traced bool) (*result, error) {
			return runServed(ctx, b, hotPlan(b), traced)
		}},
	{"fleet_scatter_2r",
		"the sweep's request sequence against two scatter replicas with the same total workers: isolates partition, wire encode/decode, peer calls and the owned cache tier",
		func(ctx context.Context, b *bench, traced bool) (*result, error) {
			return runServed(ctx, b, sweepPlan(b, "fleet_scatter_2r", 2), traced)
		}},
}

type closer interface{ close() }

// repeatSetup runs setup reps times, timing each and closing all but the
// last, which it returns with the set-up times in seconds.
func repeatSetup[T closer](reps int, setup func() (T, error)) (T, []float64, error) {
	var fx T
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := setup()
		if err != nil {
			return fx, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < reps-1 {
			f.close()
		}
		fx = f
	}
	return fx, secs, nil
}

// latencyMetrics fills the client-side end-to-end metrics from the
// latencies (ms) of the succeeded ops and the phase's wall time.
func (r *result) latencyMetrics(lat []float64, wallS float64) {
	r.Metrics["latency_ms_p50"] = median(lat)
	r.Metrics["throughput_ops_s"] = float64(len(lat)) / wallS
	r.Info["latency_samples"] = len(lat)
	if p := supportedTail(len(lat)); p > 0 {
		r.Info["latency_tail_percentile"] = p
		r.Info["latency_ms_tail"] = stats.Percentile(lat, p)
	}
}

// processMetrics reports allocation and GC cost per op between two
// MemStats readings.
func (r *result) processMetrics(before, after *runtime.MemStats, ops int) {
	r.Metrics["process.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(ops)
	r.Metrics["process.gc_pause_ms_per_op"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / float64(ops)
	r.Metrics["process.heap_sys_mb"] = float64(after.HeapSys) / 1e6
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if _, ok := r.Info["first_failure"]; !ok {
		r.Info["first_failure"] = fmt.Sprintf(format, args...)
	}
}

func newResult(name string, traced bool) *result {
	return &result{Workload: name, Traced: traced, Metrics: map[string]float64{}, Info: map[string]any{}}
}

// --- cold_sparse_6144h ------------------------------------------------------

type coldFx struct {
	ft    *topo.FatTree
	flows []workload.Flow
	net   *model.Net
}

func (*coldFx) close() {}

func (fx *coldFx) input(b *bench) estimateInput {
	return estimateInput{
		t: fx.ft.Topology, flows: fx.flows, net: fx.net,
		numPaths: b.sz.coldPaths, seed: 1, cfg: packetsim.DefaultConfig(),
	}
}

func setupCold(ctx context.Context, b *bench) (*coldFx, error) {
	ft, err := topo.LargeFatTree()
	if err != nil {
		return nil, err
	}
	flows, err := genFlows(ft, b.sz.coldFlows, 1.5, b.seed)
	if err != nil {
		return nil, err
	}
	net, err := loadModel(b.ckpt)
	if err != nil {
		return nil, err
	}
	fx := &coldFx{ft: ft, flows: flows, net: net}
	if _, err := fx.input(b).estimate(ctx, 0); err != nil { // warm-up: scratch pools, page faults
		return nil, err
	}
	return fx, nil
}

func runCold(ctx context.Context, b *bench, traced bool) (*result, error) {
	res := newResult("cold_sparse_6144h", traced)
	reps := b.sz.setupReps
	if traced {
		reps = 1
	}
	fx, setups, err := repeatSetup(reps, func() (*coldFx, error) { return setupCold(ctx, b) })
	if err != nil {
		return nil, err
	}
	in := fx.input(b)
	want, err := in.estimate(ctx, 1)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	runtime.GC()

	if traced {
		tr := newTracer()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		layers, rounds, err := ledger(ctx, tr, b.phaseBudget(0, 1), in, want)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		res.phaseOps = [][]int{{rounds}}
		for k, v := range layers {
			res.Metrics[k] = v
		}
		res.Attempted = 3 * rounds // each round checks two Estimates and the re-enactment
		res.processMetrics(&before, &after, res.Attempted)
		res.Info["ledger_rounds"] = rounds
		res.spans = tr.snapshot()
		return res, nil
	}

	var lat []float64
	clock := b.phaseBudget(0, 1).start()
	for n := 0; n == 0 || !clock.done(0, n); n++ {
		res.Attempted++
		t0 := time.Now()
		got, err := in.estimate(ctx, 0)
		ms := float64(time.Since(t0)) / 1e6
		switch {
		case err != nil:
			res.fail("op %d: %v", n, err)
		case !got.equal(want):
			res.fail("op %d: got %v, reference %v", n, got, want)
		default:
			lat = append(lat, ms)
		}
	}
	res.latencyMetrics(lat, time.Since(clock.t0).Seconds())
	res.Metrics["setup_s"] = median(setups)
	res.phaseOps = [][]int{{res.Attempted}}

	dn, err := newDense(b.sz.denseFlows)
	if err != nil {
		return nil, err
	}
	if res.Metrics["p99_err_pct"], err = accuracy(ctx, dn, fx.net, b.sz.sweepPaths); err != nil {
		return nil, err
	}
	return res, nil
}

// --- the three served workloads ---------------------------------------------

// servedPlan is what distinguishes sweep, hot and fleet: the deployment
// shape and the request sequence.
type servedPlan struct {
	name      string
	replicas  int
	workers   int // per replica
	cacheSize int
	numPaths  int
	// prewarm is computed (and cached) during set-up.
	prewarm []request
	// at returns op i of the run's seeded request sequence, or false when the
	// sequence is exhausted (the run then stops early).
	at func(i int) (request, bool)
	// computes says the timed ops compute estimates, so the traced run also
	// runs the library ledger on the same request shape.
	computes bool
}

// sweepPlan serves both sweep_dense_256h (one replica, all workers) and
// fleet_scatter_2r (two replicas splitting the same workers): the same
// seeded order over the config grid, the same registered workload.
func sweepPlan(b *bench, name string, replicas int) servedPlan {
	order := sweepOrder(b.seed)
	paths := b.sz.sweepPaths
	return servedPlan{
		name: name, replicas: replicas, workers: max(1, runtime.GOMAXPROCS(0)/replicas),
		cacheSize: b.sz.sweepCache, numPaths: paths, computes: true,
		at: func(i int) (request, bool) {
			if i >= len(order) {
				return request{}, false
			}
			return request{knobs: sweepConfig(order[i]), seed: 1, numPaths: paths}, true
		},
	}
}

// hotSeqLen is the period of the hot sequence; a longer run wraps around,
// which a working set that repeats anyway does not notice.
const hotSeqLen = 1 << 16

func hotPlan(b *bench) servedPlan {
	p := servedPlan{
		name: "hot_256h", replicas: 1, workers: runtime.GOMAXPROCS(0),
		cacheSize: b.sz.hotCache, numPaths: b.sz.hotPaths,
	}
	for k := 0; k < b.sz.hotKeys; k++ {
		p.prewarm = append(p.prewarm, request{seed: uint64(k + 1), numPaths: p.numPaths})
	}
	order := hotOrder(b.seed, b.sz.hotKeys, hotSeqLen)
	p.at = func(i int) (request, bool) { return p.prewarm[order[i%len(order)]], true }
	return p
}

// warmSeed is the sampling seed of the warm-up requests (default config);
// no plan's timed sequence uses it, so a warm-up never pre-fills a timed key.
const warmSeed = 1000

func setupServed(b *bench, plan servedPlan, tr *tracer) (*served, error) {
	net, err := loadModel(b.ckpt)
	if err != nil {
		return nil, err
	}
	f, err := startServed(net, plan.replicas, plan.workers, plan.cacheSize, tr)
	if err != nil {
		return nil, err
	}
	if err := f.register(b.sz.denseFlows); err != nil {
		f.close()
		return nil, err
	}
	// Warm-up on every replica: the first Decomposition(), connections in
	// both directions, scratch pools.
	warm := plan.prewarm
	for rep := range f.reps {
		warm = append(warm, request{seed: uint64(warmSeed + rep), numPaths: plan.numPaths})
	}
	for i, rq := range warm {
		if _, err := f.estimate(i%len(f.reps), -1, rq); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

// opRecord is one client operation.
type opRecord struct {
	id, client, rep  int
	rq               request
	startNs, endNs   int64 // tracer clock
	rp               *reply
	err              error
	clientSpan, hand int // span IDs in a traced phase, else -1
}

func (o *opRecord) latMs() float64 { return float64(o.endNs-o.startNs) / 1e6 }

// phase runs b.clients closed-loop clients against f until bg is spent.
// Client c takes ops first+c, first+c+clients, ... of the plan's sequence and
// sends each to its own replica, so which replica coordinates which op does
// not depend on timing. It returns the ops in ID order, the count per client,
// and the wall time to the last reply.
func (f *served) phase(b *bench, plan servedPlan, bg budget, first int) ([]opRecord, []int, float64) {
	var (
		mu  sync.Mutex
		ops []opRecord
		wg  sync.WaitGroup
	)
	counts := make([]int, b.clients)
	clock := bg.start()
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ; n++ {
				i := first + n*b.clients + c
				rq, ok := plan.at(i)
				if !ok || (n > 0 && clock.done(c, n)) {
					return
				}
				o := opRecord{id: i, client: c, rep: c % len(f.reps), rq: rq, clientSpan: -1, hand: -1}
				o.startNs = f.tr.now()
				o.rp, o.err = f.estimate(o.rep, i, o.rq)
				o.endNs = f.tr.now()
				if f.tr.on.Load() {
					o.clientSpan = f.tr.add(span{
						Parent: -1, Op: i, Name: "client.estimate", StartNs: o.startNs, EndNs: o.endNs, Replica: -1,
					})
				}
				mu.Lock()
				ops = append(ops, o)
				counts[c]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(clock.t0).Seconds()
	sort.Slice(ops, func(i, j int) bool { return ops[i].id < ops[j].id })
	return ops, counts, wall
}

// check marks every op that errored, came back degraded, or whose p99 map
// differs from the library's answer for the same request.
func (r *result) check(ctx context.Context, dn *dense, net *model.Net, ops []opRecord) error {
	distinct := make(map[string]request)
	for i := range ops {
		distinct[ops[i].rq.key()] = ops[i].rq
	}
	refs, err := references(ctx, dn, net, distinct)
	if err != nil {
		return err
	}
	for i := range ops {
		o := &ops[i]
		r.Attempted++
		switch want := refs[o.rq.key()]; {
		case o.err != nil:
			r.fail("op %d: %v", o.id, o.err)
		case o.rp.Degraded:
			r.fail("op %d: degraded answer", o.id)
		case !o.rp.P99.equal(want):
			r.fail("op %d (%s): got %v, library says %v", o.id, o.rq.key(), o.rp.P99, want)
		}
	}
	return nil
}

func succeeded(ops []opRecord) (lat []float64) {
	for i := range ops {
		if ops[i].err == nil {
			lat = append(lat, ops[i].latMs())
		}
	}
	return lat
}

func runServed(ctx context.Context, b *bench, plan servedPlan, traced bool) (*result, error) {
	if plan.replicas > 2 {
		return nil, fmt.Errorf("%s: span attribution assumes at most two replicas", plan.name)
	}
	res := newResult(plan.name, traced)
	tr := newTracer()
	reps := b.sz.setupReps
	if traced {
		reps = 1
	}
	f, setups, err := repeatSetup(reps, func() (*served, error) { return setupServed(b, plan, tr) })
	if err != nil {
		return nil, err
	}
	defer f.close()
	dn, err := newDense(b.sz.denseFlows)
	if err != nil {
		return nil, err
	}
	refNet, err := loadModel(b.ckpt)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	if !traced {
		ops, counts, wall := f.phase(b, plan, b.phaseBudget(0, 1), 0)
		res.phaseOps = [][]int{counts}
		if err := res.check(ctx, dn, refNet, ops); err != nil {
			return nil, err
		}
		if res.Failed > 0 {
			return res, nil
		}
		res.latencyMetrics(succeeded(ops), wall)
		res.Metrics["setup_s"] = median(setups)
		if res.Metrics["p99_err_pct"], err = accuracy(ctx, dn, refNet, b.sz.sweepPaths); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Traced run: an untraced slice for the overhead figure, the traced
	// slice for the serve and cluster layers, then (where ops compute) the
	// library ledger for the layers under the handler.
	share := 0.5
	if plan.computes {
		share = 0.25
	}
	var before, after runtime.MemStats
	c0, err := f.scrape()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&before)
	plain, plainCounts, _ := f.phase(b, plan, b.phaseBudget(0, share), 0)
	if err := f.settle(); err != nil {
		return nil, err
	}
	tr.on.Store(true)
	ops, counts, _ := f.phase(b, plan, b.phaseBudget(1, share), b.clients*slices.Max(plainCounts))
	res.phaseOps = [][]int{plainCounts, counts}
	if err := f.settle(); err != nil {
		return nil, err
	}
	tr.on.Store(false)
	runtime.ReadMemStats(&after)
	c1, err := f.scrape()
	if err != nil {
		return nil, err
	}
	if err := res.check(ctx, dn, refNet, append(append([]opRecord(nil), plain...), ops...)); err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		return res, nil
	}
	served := len(plain) + len(ops)
	res.processMetrics(&before, &after, served)
	if looked := c1.hits - c0.hits + c1.misses - c0.misses; looked > 0 {
		res.Metrics["core.cache_hit_frac"] = (c1.hits - c0.hits) / looked
	}
	res.Metrics["core.cache_misses"] = c1.misses - c0.misses
	res.Metrics["core.cache_entries"] = c1.entries
	res.Metrics["cluster.fallback_shards"] = c1.fallbackShards - c0.fallbackShards
	res.Metrics["cluster.retries"] = c1.retries - c0.retries
	res.Info["served_ops"] = served
	res.Info["traced_ops"] = len(ops)

	res.Metrics["bench.trace_overhead_pct"] = 100 * (median(succeeded(ops))/median(succeeded(plain)) - 1)

	// What registration pays once, outside every timed op: the share of
	// setup_s these two layers own on the serve workloads.
	end := tr.begin("workload.validate", -1, -1)
	if err := workload.ValidateFlows(dn.ft.Topology, dn.flows); err != nil {
		return nil, err
	}
	res.Metrics["workload.validate_ms"] = end()
	end = tr.begin("pathsim.decompose", -1, -1)
	if _, err := pathsim.Decompose(dn.ft.Topology, dn.flows); err != nil {
		return nil, err
	}
	res.Metrics["pathsim.decompose_ms"] = end()
	res.Metrics["pathsim.paths_total"] = float64(len(dn.d.Paths))

	if plan.computes {
		in := estimateInput{
			t: dn.ft.Topology, flows: dn.flows, d: dn.d, net: refNet,
			numPaths: plan.numPaths, seed: 1, cfg: packetsim.DefaultConfig(),
		}
		want, err := in.estimate(ctx, 1)
		if err != nil {
			return nil, err
		}
		layers, rounds, err := ledger(ctx, tr, b.phaseBudget(2, 0.5), in, want)
		if err != nil {
			return nil, err
		}
		res.phaseOps = append(res.phaseOps, []int{rounds})
		for k, v := range layers {
			if k != "bench.trace_overhead_pct" { // the served figure above is this workload's
				res.Metrics[k] = v
			}
		}
		res.Attempted += 3 * rounds
		res.Info["ledger_rounds"] = rounds
	}
	res.serveLayers(tr.snapshot(), ops)
	return res, nil
}

// serveLayers derives the serve.* and cluster.* metrics of a traced phase
// from the handler-wrapper spans (spans is a snapshot taken after the phase;
// ops are the phase's client operations), and links handler spans under
// their client span and peer RPC spans under their coordinator's handler.
func (r *result) serveLayers(spans []span, ops []opRecord) {
	byOp := make(map[int]*opRecord, len(ops))
	for i := range ops {
		byOp[ops[i].id] = &ops[i]
	}
	for i := range spans {
		s := &spans[i]
		if o := byOp[s.Op]; o != nil && s.Name == "/v1/estimate" {
			s.Parent, o.hand = o.clientSpan, s.ID
		}
	}
	// A peer RPC handled on replica j was sent by the other replica, whose
	// one client runs one op at a time: the RPC belongs to that client's
	// latest op started before it (a late cacheput lands after its op ended).
	var rpcMs, rpcBytes []float64
	slowestPaths := make(map[int]float64)
	for i := range spans {
		s := &spans[i]
		if !strings.HasPrefix(s.Name, "/internal/v1/") || s.Name == cluster.HealthEndpoint {
			continue
		}
		var owner *opRecord
		for j := range ops {
			o := &ops[j]
			if o.rep != s.Replica && o.startNs <= s.StartNs && (owner == nil || o.startNs > owner.startNs) {
				owner = o
			}
		}
		if owner == nil || owner.hand < 0 {
			continue
		}
		s.Op, s.Parent = owner.id, owner.hand
		rpcMs = append(rpcMs, s.durMs())
		rpcBytes = append(rpcBytes, float64(s.Bytes))
		if s.Name == cluster.PathsEndpoint {
			slowestPaths[owner.id] = max(slowestPaths[owner.id], s.durMs())
		}
	}

	var handler, overhead, transport, scatter []float64
	reported := map[string][]float64{}
	for i := range ops {
		o := &ops[i]
		if o.err != nil || o.hand < 0 {
			continue
		}
		h := spans[o.hand].durMs()
		handler = append(handler, h)
		transport = append(transport, o.latMs()-h)
		if o.rp.Cached {
			overhead = append(overhead, h) // a hit computes nothing: the whole handler is overhead
		} else {
			overhead = append(overhead, h-o.rp.ElapsedMS)
			for _, st := range reportedStages {
				reported[st] = append(reported[st], o.rp.StagesMS[st])
			}
			reported["elapsed"] = append(reported["elapsed"], o.rp.ElapsedMS)
		}
		if p, ok := slowestPaths[o.id]; ok {
			scatter = append(scatter, h-p)
		}
	}
	r.Metrics["serve.handler_ms_p50"] = median(handler)
	r.Metrics["serve.overhead_ms_p50"] = median(overhead)
	r.Metrics["serve.transport_ms_p50"] = median(transport)
	for st, v := range reported {
		r.Metrics["serve.reported_"+st+"_ms"] = median(v)
	}
	r.Metrics["cluster.rpc_ms_p50"] = median(rpcMs)
	r.Metrics["cluster.rpc_per_op"] = float64(len(rpcMs)) / float64(len(ops))
	r.Metrics["cluster.rpc_bytes_per_op"] = sum(rpcBytes) / float64(len(ops))
	r.Metrics["cluster.scatter_overhead_ms_p50"] = median(scatter)
	r.spans = spans
}

// reportedStages are the response's stages_ms entries quoted as
// serve.reported_*_ms: timed by the program, not by the benchmark.
var reportedStages = []string{"decompose", "sample", "pathsim", "predict", "aggregate"}
