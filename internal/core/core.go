// Package core is the m3 estimator itself (§3): it decomposes a
// full-network workload into paths, draws a flow-weighted path sample, runs
// flowSim on each sampled path to build feature maps, corrects them with the
// trained ML model, and aggregates the per-path outputs into network-wide
// slowdown distributions.
//
// For the paper's ablations the same pipeline can be driven by two
// alternative per-path backends: the raw flowSim estimates (the "no ML"
// ablation of Fig. 16) and the packet-level path simulation ns-3-path (the
// decomposition-only oracle of §2.1 / Fig. 15).
package core

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"m3/internal/agg"
	"m3/internal/faultinject"
	"m3/internal/feature"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/parsimon"
	"m3/internal/pathsim"
	"m3/internal/rng"
	"m3/internal/sampling"
	"m3/internal/stats"
	"m3/internal/topo"
	"m3/internal/unit"
	"m3/internal/workload"
)

// Method selects the per-path backend.
type Method uint8

// Per-path estimation backends.
const (
	// MethodML is full m3: flowSim features refined by the trained model.
	MethodML Method = iota
	// MethodFlowSim reports flowSim's estimates directly (no-ML ablation).
	MethodFlowSim
	// MethodNS3Path simulates each sampled path at packet level (the
	// ns-3-path oracle; slow, used for ground-truth decomposition studies).
	MethodNS3Path
)

func (m Method) String() string {
	switch m {
	case MethodML:
		return "m3"
	case MethodFlowSim:
		return "flowsim"
	case MethodNS3Path:
		return "ns3-path"
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

// Defaults for NewEstimator.
const (
	// DefaultNumPaths is the paper's sampled-path budget.
	DefaultNumPaths = 500
	// DefaultBatchSize is the ML micro-batch size: large enough that the
	// per-batch fixed costs (scratch checkout, result slab) amortize, small
	// enough that batches from concurrent estimates interleave on a shared
	// pool.
	DefaultBatchSize = 32
)

// Estimator runs the m3 pipeline. Construct with NewEstimator; the
// configuration is fixed at construction (an Estimator is immutable and safe
// to share between goroutines).
type Estimator struct {
	pred       model.Predictor
	numPaths   int
	workers    int
	method     Method
	seed       uint64
	batchSize  int
	pool       *Pool
	decomp     *pathsim.Decomposition
	fallback   bool
	predictPar int
	features   *FeatureCache
	featureWL  WorkloadHash
}

// Option configures an Estimator at construction.
type Option func(*Estimator)

// WithNumPaths sets the sampled-path budget (default DefaultNumPaths).
func WithNumPaths(n int) Option { return func(e *Estimator) { e.numPaths = n } }

// WithWorkers bounds per-path parallelism (0 = GOMAXPROCS). Ignored when a
// shared pool is set — the pool's size governs.
func WithWorkers(n int) Option { return func(e *Estimator) { e.workers = n } }

// WithMethod selects the per-path backend (default MethodML).
func WithMethod(m Method) Option { return func(e *Estimator) { e.method = m } }

// WithSeed seeds the path sampling (default 1).
func WithSeed(seed uint64) Option { return func(e *Estimator) { e.seed = seed } }

// WithBatchSize sets the ML inference micro-batch size (default
// DefaultBatchSize; values < 1 fall back to the default). Batch 1 degrades
// to per-path prediction.
func WithBatchSize(n int) Option { return func(e *Estimator) { e.batchSize = n } }

// WithPool points the estimator at a shared worker pool. Long-lived callers
// (the estimation service) share one Pool across estimators so concurrent
// estimates divide the cores instead of oversubscribing them. Without it,
// Estimate spins up a transient pool per call.
func WithPool(p *Pool) Option { return func(e *Estimator) { e.pool = p } }

// WithFlowSimFallback enables graceful degradation for MethodML: when the
// model is missing, fails to predict, or emits non-finite slowdowns, the
// affected paths fall back to the raw flowSim estimate instead of failing the
// whole run. The result carries Degraded/DegradedPaths so callers can see the
// answer is the weaker no-ML estimate (Fig. 16's ablation), not full m3.
// Off by default: library callers get hard errors; the serving layer opts in.
func WithFlowSimFallback(on bool) Option { return func(e *Estimator) { e.fallback = on } }

// WithPredictor replaces the estimator's inference backend after
// construction options ran — useful when the backend is chosen per request
// (the serving layer's `"backend"` field) while the rest of the options stay
// fixed. A nil (or typed-nil) predictor clears the model.
func WithPredictor(p model.Predictor) Option {
	return func(e *Estimator) {
		if model.IsNil(p) {
			p = nil
		}
		e.pred = p
	}
}

// WithPredictParallelism bounds how many worker goroutines one PredictBatch
// call may shard its GEMM kernels across (<= 1 or 0 means serial). Applied
// to the estimator's predictor at construction when the backend supports
// the knob (both built-in kinds do). Sharded kernels are bit-identical to
// serial, so this only moves wall-clock time. Note the knob lives on the
// (shared) predictor: handing one backend to several estimators with
// different values leaves the last writer's setting.
func WithPredictParallelism(n int) Option { return func(e *Estimator) { e.predictPar = n } }

// WithDecomposition supplies a precomputed decomposition, which must be of
// exactly the (topology, flows) passed to Estimate; the decompose stage is
// then skipped. Callers that estimate the same workload repeatedly under
// different configurations (sessions, the service) cache it.
func WithDecomposition(d *pathsim.Decomposition) Option {
	return func(e *Estimator) { e.decomp = d }
}

// WithFeatureCache shares each sampled path's configuration-free products
// through c under (hash, path index): the scenario's flowSim run, the
// model's feature maps and the bucketized flowSim output. hash must be
// HashWorkload of the (topology, flows) passed to Estimate. The products
// depend on neither the configuration, the method nor the model, so
// estimates of one workload under any of them run flowSim once per path.
// A nil c shares nothing.
func WithFeatureCache(c *FeatureCache, hash WorkloadHash) Option {
	return func(e *Estimator) { e.features, e.featureWL = c, hash }
}

// NewEstimator returns an estimator for the given inference backend with
// the paper's defaults, adjusted by opts. Any model.Predictor works —
// *model.Net (the float transformer) and *model.QuantizedNet (int8) are the
// built-in kinds — and existing callers passing a *model.Net compile
// unchanged. p may be nil for the model-free backends
// (WithMethod(MethodFlowSim) or MethodNS3Path).
func NewEstimator(p model.Predictor, opts ...Option) *Estimator {
	if model.IsNil(p) {
		p = nil // a typed-nil *Net must read as "no model", like before the interface cut
	}
	e := &Estimator{
		pred:      p,
		numPaths:  DefaultNumPaths,
		seed:      1,
		batchSize: DefaultBatchSize,
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.predictPar > 0 && e.pred != nil {
		model.SetPredictParallelism(e.pred, e.predictPar)
	}
	return e
}

// StageTimings breaks an estimation's cost down by pipeline stage.
// Decompose, Sample, and Aggregate are wall-clock; PathSim and Predict are
// summed across workers (time spent building each path's scenario, running
// its backend and featurizing it — a lookup on a feature-cache hit — and in
// ML inference), feeding the serving layer's /metrics endpoint. Because the
// streaming pipeline overlaps the two stages, the summed PathSim + Predict
// can exceed the shard's wall clock — PathSimWall and PredictWall carry the
// per-stage wall-clock extents (first task start to last task end), and
// Overlap is the wall-clock span during which both stages were running at
// once.
type StageTimings struct {
	Decompose time.Duration
	Sample    time.Duration
	PathSim   time.Duration
	Predict   time.Duration
	Aggregate time.Duration

	PathSimWall time.Duration
	PredictWall time.Duration
	Overlap     time.Duration
}

// Estimate is the result of a network-wide estimation.
type Estimate struct {
	Agg *agg.NetworkEstimate
	// DistinctPaths is the number of unique paths simulated (after
	// deduplicating the weighted sample).
	DistinctPaths int
	// TotalPaths is the number of populated paths in the decomposition.
	TotalPaths int
	// Elapsed is the wall-clock estimation time (excluding workload
	// generation, matching how the paper reports simulation time).
	Elapsed time.Duration
	// Stages attributes the cost to pipeline stages.
	Stages StageTimings
	// Degraded reports that at least one path fell back from the ML
	// correction to the raw flowSim estimate (see WithFlowSimFallback).
	Degraded bool
	// DegradedPaths counts the distinct paths that fell back.
	DegradedPaths int
}

// OverlapRatio reports how much of the shorter ML stage's wall clock was
// hidden under the longer one: Overlap / min(PathSimWall, PredictWall),
// in [0, 1]. 1 means the predict stage ran entirely inside the featurize
// window (or vice versa); 0 means the stages serialized — a model-free
// method or a single-worker pool reports 0.
func (e *Estimate) OverlapRatio() float64 {
	shorter := min(e.Stages.PathSimWall, e.Stages.PredictWall)
	if shorter <= 0 || e.Stages.Overlap <= 0 {
		return 0
	}
	r := float64(e.Stages.Overlap) / float64(shorter)
	return min(r, 1)
}

// P99PerBucket returns the estimated p99 slowdown for the four output size
// buckets.
func (e *Estimate) P99PerBucket() [feature.NumOutputBuckets]float64 {
	var out [feature.NumOutputBuckets]float64
	for b := range out {
		out[b] = e.Agg.BucketP99(b)
	}
	return out
}

// P99 returns the network-wide combined p99 slowdown.
func (e *Estimate) P99() float64 { return e.Agg.CombinedP99() }

// Plan is the deterministic front half of an estimate: the path
// decomposition plus the deduplicated weighted path sample. Given the same
// (topology, flows, numPaths, seed), Plan is identical in every process —
// pathsim.Decompose orders paths by first appearance in the flow list and
// the sampler is seeded — which is what lets a cluster coordinator ship
// bare path indices to replicas and trust they name the same paths there.
type Plan struct {
	D *pathsim.Decomposition
	// Distinct holds the distinct sampled path indices (into D.Paths);
	// Mult[i] is how many times Distinct[i] was drawn.
	Distinct []int
	Mult     []int

	decomposeTime time.Duration
	sampleTime    time.Duration
}

// Plan decomposes and samples the workload without running any per-path
// backend. Callers that scatter the per-path work across processes run the
// plan's shards via RunShard and combine them with Assemble; Estimate does
// exactly that in-process.
func (e *Estimator) Plan(t *topo.Topology, flows []workload.Flow) (*Plan, error) {
	if e.numPaths <= 0 {
		return nil, fmt.Errorf("core: NumPaths must be positive")
	}
	start := time.Now()
	d := e.decomp
	if d == nil {
		// An injected decomposition was validated when it was built; a raw
		// (topology, flows) pair gets the full structural gate here, before
		// any simulator code can trip over it.
		if err := (workload.Workload{Topo: t, Flows: flows}).Validate(); err != nil {
			return nil, err
		}
		var err error
		d, err = pathsim.Decompose(t, flows)
		if err != nil {
			return nil, err
		}
	}
	p := &Plan{D: d}
	p.decomposeTime = time.Since(start)

	sampleStart := time.Now()
	r := rng.New(e.seed)
	sample, err := sampling.Weighted(d.FgWeights(), e.numPaths, r)
	if err != nil {
		return nil, err
	}
	p.Distinct, p.Mult = sampling.Dedup(sample)
	p.sampleTime = time.Since(sampleStart)
	return p, nil
}

// ShardResult is one shard's per-path outputs plus its backend cost, in the
// JSON-transportable form the cluster's /internal/v1/paths endpoint returns.
type ShardResult struct {
	// Outs[i] is the output of path distinct[i] (same order as the request).
	Outs []agg.PathOutput
	// PathSimNs and PredictNs are summed backend time across workers.
	PathSimNs int64
	PredictNs int64
	// PathSimWallNs and PredictWallNs are the wall-clock extents of the two
	// ML stages, and OverlapNs the span both ran concurrently (zero for
	// model-free methods). Old peers that predate these fields simply
	// report zero.
	PathSimWallNs int64
	PredictWallNs int64
	OverlapNs     int64
	// DegradedPaths counts paths that fell back from ML to flowSim.
	DegradedPaths int
}

// RunShard executes the per-path backends for one slice of a plan's
// distinct paths — distinct[i] indexes d.Paths and mult[i] is its sampling
// multiplicity. It is the unit of scatter-gather: a coordinator partitions
// a plan's paths into contiguous shards and runs each wherever it likes;
// concatenating the shard outputs in plan order reproduces exactly what a
// single-process Estimate computes.
func (e *Estimator) RunShard(ctx context.Context, d *pathsim.Decomposition,
	distinct, mult []int, cfg packetsim.Config) (*ShardResult, error) {

	if len(distinct) != len(mult) {
		return nil, fmt.Errorf("core: shard has %d paths but %d multiplicities", len(distinct), len(mult))
	}
	for i, pi := range distinct {
		if pi < 0 || pi >= len(d.Paths) {
			return nil, fmt.Errorf("core: shard path index %d out of range [0,%d)", pi, len(d.Paths))
		}
		if mult[i] <= 0 {
			return nil, fmt.Errorf("core: shard multiplicity %d must be positive", mult[i])
		}
	}
	method := e.method
	wholeDegraded := false
	if method == MethodML && e.pred == nil {
		if !e.fallback {
			return nil, fmt.Errorf("core: MethodML requires a trained model")
		}
		// No model at all: the entire shard degrades to the flowSim backend.
		method = MethodFlowSim
		wholeDegraded = true
	}
	// Workers pull path indices from the pool; the first error (or a done
	// ctx) cancels the remaining paths instead of running them all out.
	pool := e.pool
	if pool == nil {
		pool = NewPool(e.workers)
		defer pool.Close()
	}
	sr := &ShardResult{Outs: make([]agg.PathOutput, len(distinct))}
	var pathSimNs, predictNs atomic.Int64
	var degraded atomic.Int64
	var walls stageWalls
	var err error
	if method == MethodML {
		walls, err = e.estimateMLStreamed(ctx, pool, d, distinct, mult, cfg, sr.Outs, &pathSimNs, &predictNs, &degraded)
	} else {
		wallStart := time.Now()
		first := e.features.sweepStart(len(distinct))
		err = pool.Run(ctx, len(distinct), func(ctx context.Context, i int) error {
			i = (first + i) % len(distinct)
			faultinject.At("core.path", distinct[i])
			out, err := e.estimatePath(ctx, d, distinct[i], mult[i], cfg, method, &pathSimNs)
			if err != nil {
				return fmt.Errorf("core: path %d: %w", distinct[i], err)
			}
			sr.Outs[i] = out
			return nil
		})
		walls.pathSim = time.Since(wallStart)
	}
	if err != nil {
		return nil, err
	}
	sr.PathSimNs = pathSimNs.Load()
	sr.PredictNs = predictNs.Load()
	sr.PathSimWallNs = int64(walls.pathSim)
	sr.PredictWallNs = int64(walls.predict)
	sr.OverlapNs = int64(walls.overlap)
	sr.DegradedPaths = int(degraded.Load())
	if wholeDegraded {
		sr.DegradedPaths = len(distinct)
	}
	return sr, nil
}

// Assemble aggregates per-path outputs — ordered exactly as p.Distinct —
// into the final estimate. st carries the caller's PathSim/Predict totals;
// the plan's Decompose/Sample timings and the Aggregate stage are filled in
// here. Elapsed is left zero for the caller to stamp.
func (p *Plan) Assemble(outs []agg.PathOutput, st StageTimings, degradedPaths int) (*Estimate, error) {
	if len(outs) != len(p.Distinct) {
		return nil, fmt.Errorf("core: assemble got %d outputs for %d sampled paths", len(outs), len(p.Distinct))
	}
	st.Decompose = p.decomposeTime
	st.Sample = p.sampleTime
	aggStart := time.Now()
	a, err := agg.Aggregate(outs)
	if err != nil {
		return nil, err
	}
	st.Aggregate = time.Since(aggStart)
	return &Estimate{
		Agg:           a,
		DistinctPaths: len(p.Distinct),
		TotalPaths:    len(p.D.Paths),
		Stages:        st,
		Degraded:      degradedPaths > 0,
		DegradedPaths: degradedPaths,
	}, nil
}

// Estimate runs the pipeline on the given workload and network config, with
// cooperative cancellation threaded down to the per-path backends: when ctx
// ends (a client disconnect, a deadline), in-flight path simulations abort
// mid-run and the estimate returns ctx.Err() promptly instead of running
// every path to completion.
func (e *Estimator) Estimate(ctx context.Context, t *topo.Topology,
	flows []workload.Flow, cfg packetsim.Config) (*Estimate, error) {

	start := time.Now()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := e.Plan(t, flows)
	if err != nil {
		return nil, err
	}
	sr, err := e.RunShard(ctx, plan.D, plan.Distinct, plan.Mult, cfg)
	if err != nil {
		return nil, err
	}
	res, err := plan.Assemble(sr.Outs, StageTimings{
		PathSim:     time.Duration(sr.PathSimNs),
		Predict:     time.Duration(sr.PredictNs),
		PathSimWall: time.Duration(sr.PathSimWallNs),
		PredictWall: time.Duration(sr.PredictWallNs),
		Overlap:     time.Duration(sr.OverlapNs),
	}, sr.DegradedPaths)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// stageWalls carries the ML pipeline's wall-clock extents: pathSim and
// predict span first-task-start to last-task-end per stage, and overlap is
// the concurrent span (how much of the two stages ran at once).
type stageWalls struct {
	pathSim time.Duration
	predict time.Duration
	overlap time.Duration
}

// mlRun is the per-call state of the ML pipeline: each sampled path's
// configuration-free entry, and the batch/predict plumbing, which does not
// depend on how batches form (the streamed pipeline fills them in
// completion order, the test-only staged reference by contiguous index
// ranges).
type mlRun struct {
	e        *Estimator
	d        *pathsim.Decomposition
	distinct []int
	mult     []int
	cfg      packetsim.Config
	entries  []*pathEntry
	outs     []agg.PathOutput

	pathSimNs, predictNs, degraded *atomic.Int64
}

func (e *Estimator) newMLRun(d *pathsim.Decomposition, distinct, mult []int,
	cfg packetsim.Config, outs []agg.PathOutput,
	pathSimNs, predictNs, degraded *atomic.Int64) *mlRun {

	return &mlRun{
		e: e, d: d, distinct: distinct, mult: mult, cfg: cfg,
		entries: make([]*pathEntry, len(distinct)), outs: outs,
		pathSimNs: pathSimNs, predictNs: predictNs, degraded: degraded,
	}
}

// featurize fetches (or runs flowSim and featurizes) sampled path i,
// storing its entry and its output skeleton.
func (r *mlRun) featurize(ctx context.Context, i int) error {
	faultinject.At("core.path", r.distinct[i])
	ent, err := r.e.entry(ctx, r.d, r.distinct[i], r.pathSimNs)
	if err != nil {
		return fmt.Errorf("core: path %d: %w", r.distinct[i], err)
	}
	r.entries[i] = ent
	r.outs[i] = agg.PathOutput{Counts: ent.flowSim.Counts, Mult: r.mult[i]}
	return nil
}

// predict flushes the featurized paths named by idx (indices into distinct,
// in whatever order the batch formed) through PredictBatch, writing final
// bucket vectors — or flowSim fallbacks — into outs. A PredictBatch error
// degrades the whole batch when fallback is on; non-finite rows degrade
// per path. Per-sample outputs are independent of batch composition
// (PredictBatch agrees with per-sample prediction bitwise), so streamed
// completion-order batches reproduce staged contiguous batches exactly.
func (r *mlRun) predict(ctx context.Context, idx []int) error {
	batch := make([]*model.Sample, len(idx))
	for k, i := range idx {
		batch[k] = r.entries[i].feat.Sample(r.cfg)
	}
	predStart := time.Now()
	preds, err := r.e.pred.PredictBatch(ctx, batch)
	r.predictNs.Add(int64(time.Since(predStart)))
	if err != nil {
		if !r.e.fallback {
			return fmt.Errorf("core: predict batch [path %d..]: %w", r.distinct[idx[0]], err)
		}
		// The model refused the whole batch; serve its paths from the
		// flowSim estimates instead of failing the run.
		for _, i := range idx {
			r.outs[i] = r.entries[i].flowSimOutput(r.mult[i])
			r.entries[i] = nil
		}
		r.degraded.Add(int64(len(idx)))
		return nil
	}
	faultinject.At("core.predict", preds)
	for k, pred := range preds {
		i := idx[k]
		if r.e.fallback && !finiteSlice(pred) {
			r.outs[i] = r.entries[i].flowSimOutput(r.mult[i])
			r.entries[i] = nil
			r.degraded.Add(1)
			continue
		}
		out := &r.outs[i]
		out.Buckets = make([][]float64, feature.NumOutputBuckets)
		for b := 0; b < feature.NumOutputBuckets; b++ {
			if out.Counts[b] > 0 {
				out.Buckets[b] = pred[b*feature.NumPercentiles : (b+1)*feature.NumPercentiles]
			}
		}
		r.entries[i] = nil // release uncached entries as batches drain
	}
	return nil
}

// pprof labels for the ML pipeline's two stages, so a CPU profile of the
// serving layer shows featurize and predict as separate label sets and the
// overlap is visible in the profile timeline.
var (
	featurizeLabels = pprof.Labels("stage", "featurize")
	predictLabels   = pprof.Labels("stage", "predict")
)

// estimateMLStreamed is the ML backend's barrier-free pipeline: featurize
// tasks fan out over the pool and deliver completed samples to a batch
// accumulator; the moment a micro-batch fills — or the featurize stage
// drains — a predict task launches on the same pool via a Group, so flowSim
// and inference overlap instead of serializing and batches from concurrent
// estimates interleave exactly as before. Cancellation is shared both ways:
// a predict failure cancels in-flight featurize work (the featurize Run
// executes under the group's context) and a featurize failure cancels
// pending predicts. Estimates are bit-identical to the barrier-separated
// reference schedule (TestStreamedMatchesStagedBitIdentical).
func (e *Estimator) estimateMLStreamed(ctx context.Context, pool *Pool,
	d *pathsim.Decomposition, distinct, mult []int, cfg packetsim.Config,
	outs []agg.PathOutput, pathSimNs, predictNs, degraded *atomic.Int64) (stageWalls, error) {

	r := e.newMLRun(d, distinct, mult, cfg, outs, pathSimNs, predictNs, degraded)
	bs := e.batchSize
	if bs <= 0 {
		bs = DefaultBatchSize
	}

	g := pool.NewGroup(ctx)
	start := time.Now()
	// predFirst/predLast track the predict stage's wall extent: the earliest
	// task start and latest task end, as offsets from start.
	var predFirst, predLast atomic.Int64
	predFirst.Store(math.MaxInt64)
	launch := func(idx []int) {
		g.Go(func(ctx context.Context) error {
			var err error
			pprof.Do(ctx, predictLabels, func(ctx context.Context) {
				t0 := int64(time.Since(start))
				err = r.predict(ctx, idx)
				t1 := int64(time.Since(start))
				for {
					if first := predFirst.Load(); t0 >= first || predFirst.CompareAndSwap(first, t0) {
						break
					}
				}
				for {
					if last := predLast.Load(); t1 <= last || predLast.CompareAndSwap(last, t1) {
						break
					}
				}
			})
			return err
		})
	}
	var mu sync.Mutex
	pending := make([]int, 0, bs)
	first := e.features.sweepStart(len(distinct))
	ferr := pool.Run(g.Context(), len(distinct), func(ctx context.Context, i int) error {
		i = (first + i) % len(distinct)
		var err error
		pprof.Do(ctx, featurizeLabels, func(ctx context.Context) {
			err = r.featurize(ctx, i)
		})
		if err != nil {
			return err
		}
		mu.Lock()
		pending = append(pending, i)
		var full []int
		if len(pending) >= bs {
			full = pending
			pending = make([]int, 0, bs)
		}
		mu.Unlock()
		if full != nil {
			launch(full)
		}
		return nil
	})
	featWall := time.Since(start)
	if ferr != nil {
		// Fail keeps the earlier predict error when one already canceled the
		// run (ferr is then just the induced context.Canceled); otherwise the
		// featurize error cancels the pending predicts.
		g.Fail(ferr)
	} else {
		// Featurize drained: flush the partial tail batch.
		mu.Lock()
		tail := pending
		pending = nil
		mu.Unlock()
		if len(tail) > 0 {
			launch(tail)
		}
	}
	err := g.Wait()
	total := time.Since(start)
	walls := stageWalls{pathSim: featWall}
	if first, last := predFirst.Load(), predLast.Load(); last > first {
		walls.predict = time.Duration(last - first)
	}
	// Overlap: how much longer the two stages would have taken end-to-end
	// had they serialized, versus the wall clock they actually took.
	if over := walls.pathSim + walls.predict - total; over > 0 {
		walls.overlap = over
	}
	return walls, err
}

// finiteSlice reports whether every value is a usable slowdown — Predict
// clamps below-1 outputs but NaN and Inf pass through a broken model
// untouched, so they are the degradation signal.
func finiteSlice(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// entry returns path pi's configuration-free entry, from the feature
// cache when the estimator has one. The time it takes — scenario, flowSim
// and featurize on a miss, a lookup on a hit — is PathSim stage time.
func (e *Estimator) entry(ctx context.Context, d *pathsim.Decomposition, pi int,
	pathSimNs *atomic.Int64) (*pathEntry, error) {

	start := time.Now()
	defer func() { pathSimNs.Add(int64(time.Since(start))) }()
	compute := func() (*pathEntry, error) { return newPathEntry(ctx, d, &d.Paths[pi]) }
	if e.features == nil {
		return compute()
	}
	return e.features.do(ctx, featureKey{workload: e.featureWL, path: pi}, compute)
}

// estimatePath produces sampled path pi's bucketed percentile vectors for
// the model-free backends, accumulating backend time into the stage counter.
func (e *Estimator) estimatePath(ctx context.Context, d *pathsim.Decomposition,
	pi, mult int, cfg packetsim.Config, method Method,
	pathSimNs *atomic.Int64) (agg.PathOutput, error) {

	switch method {
	case MethodNS3Path:
		simStart := time.Now()
		sc, err := d.Scenario(&d.Paths[pi])
		if err != nil {
			return agg.PathOutput{}, err
		}
		fg, err := sc.RunPacketContext(ctx, cfg)
		pathSimNs.Add(int64(time.Since(simStart)))
		if err != nil {
			return agg.PathOutput{}, err
		}
		return outputFromSamples(fg.Sizes, fg.Slowdown, mult), nil
	case MethodFlowSim:
		ent, err := e.entry(ctx, d, pi, pathSimNs)
		if err != nil {
			return agg.PathOutput{}, err
		}
		return ent.flowSimOutput(mult), nil
	}
	return agg.PathOutput{}, fmt.Errorf("core: unknown method %v", method)
}

// outputFromSamples bucketizes raw per-flow slowdowns into a PathOutput.
func outputFromSamples(sizes []unit.ByteSize, sldn []float64, mult int) agg.PathOutput {
	m := feature.BuildOutput(sizes, sldn)
	out := agg.PathOutput{
		Buckets: make([][]float64, feature.NumOutputBuckets),
		Counts:  m.Counts,
		Mult:    mult,
	}
	for b := 0; b < feature.NumOutputBuckets; b++ {
		if m.Counts[b] > 0 {
			out.Buckets[b] = m.Row(b)
		}
	}
	return out
}

// GroundTruth holds full-network packet-level results bucketized the same
// way as estimates, for error computation.
type GroundTruth struct {
	// Result is the full-network packet simulation output. Nil when the
	// ground truth came from the clustered Parsimon decomposition
	// (RunClusteredGroundTruth), which has no single network-wide run.
	Result   *packetsim.Result
	Sizes    []unit.ByteSize
	Slowdown []float64
	Elapsed  time.Duration
	// LinksSimulated/LinksTotal report the clustered decomposition's
	// coverage (zero for the full packet-level path).
	LinksSimulated int
	LinksTotal     int
}

// RunGroundTruth executes the full-network packet simulation (the ns-3
// stand-in) and returns bucketizable results. Cancelling ctx aborts the
// simulation mid-run with ctx.Err().
func RunGroundTruth(ctx context.Context, t *topo.Topology, flows []workload.Flow, cfg packetsim.Config) (*GroundTruth, error) {
	start := time.Now()
	res, err := packetsim.RunContext(ctx, t, flows, cfg)
	if err != nil {
		return nil, err
	}
	gt := &GroundTruth{Result: res, Elapsed: time.Since(start)}
	for i := range flows {
		gt.Sizes = append(gt.Sizes, flows[i].Size)
		gt.Slowdown = append(gt.Slowdown, res.Slowdown[flows[i].ID])
	}
	return gt, nil
}

// RunClusteredGroundTruth produces ground truth from the Parsimon link-level
// decomposition with clustering, on the caller's shared pool. This is the
// scale path: where RunGroundTruth's single packet simulation caps out
// around the 6144-host topology, the clustered decomposition simulates one
// representative per link cluster and stays tractable at O(100k) hosts. The
// exact tier is lossless relative to unclustered Parsimon; the distance tier
// (opts.ClusterThreshold > 0) trades accuracy for fewer simulations, bounded
// in EXPERIMENTS.md.
func RunClusteredGroundTruth(ctx context.Context, t *topo.Topology, flows []workload.Flow,
	cfg packetsim.Config, p *Pool, opts parsimon.Options) (*GroundTruth, error) {

	start := time.Now()
	res, err := parsimon.RunWithOptions(ctx, t, flows, cfg, p, opts)
	if err != nil {
		return nil, err
	}
	gt := &GroundTruth{
		Elapsed:        time.Since(start),
		LinksSimulated: res.LinksSimulated,
		LinksTotal:     res.LinksTotal,
	}
	for i := range flows {
		gt.Sizes = append(gt.Sizes, flows[i].Size)
		gt.Slowdown = append(gt.Slowdown, res.Slowdown[flows[i].ID])
	}
	return gt, nil
}

// P99 returns the overall p99 slowdown of the ground truth.
func (g *GroundTruth) P99() float64 { return stats.P99(g.Slowdown) }

// P99PerBucket returns ground-truth p99 slowdowns per output bucket.
func (g *GroundTruth) P99PerBucket() [feature.NumOutputBuckets]float64 {
	var per [feature.NumOutputBuckets][]float64
	for i, s := range g.Sizes {
		b := feature.BucketOf(s, feature.OutputBucketBounds)
		per[b] = append(per[b], g.Slowdown[i])
	}
	var out [feature.NumOutputBuckets]float64
	for b := range out {
		out[b] = stats.P99(per[b])
	}
	return out
}
