package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"m3/internal/agg"
	"m3/internal/core"
	"m3/internal/feature"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/pathsim"
	"m3/internal/rng"
	"m3/internal/sampling"
	"m3/internal/stats"
	"m3/internal/topo"
	"m3/internal/workload"
)

// estimateInput is everything one estimate reads. d is the cached
// decomposition of the service path; nil puts Validate and Decompose on the
// blocking path, as a library call from raw (topology, flows) does.
type estimateInput struct {
	t        *topo.Topology
	flows    []workload.Flow
	d        *pathsim.Decomposition
	net      *model.Net
	numPaths int
	seed     uint64
	cfg      packetsim.Config
}

// estimator builds the library estimator for in at the given worker count
// (0 = GOMAXPROCS).
func (in estimateInput) estimator(workers int) *core.Estimator {
	opts := []core.Option{
		core.WithNumPaths(in.numPaths), core.WithSeed(in.seed), core.WithWorkers(workers),
	}
	if in.d != nil {
		opts = append(opts, core.WithDecomposition(in.d))
	}
	return core.NewEstimator(in.net, opts...)
}

func (in estimateInput) estimate(ctx context.Context, workers int) (answer, error) {
	res, err := in.estimator(workers).Estimate(ctx, in.t, in.flows, in.cfg)
	if err != nil {
		return nil, err
	}
	if res.Degraded {
		return nil, fmt.Errorf("estimate degraded (%d paths fell back to flowSim)", res.DegradedPaths)
	}
	return estimateAnswer(res), nil
}

// Layer metrics the re-enacted pipeline times; their sum plus
// core.orchestration_ms is the 1-worker Estimate wall.
var pipelineLayers = []string{
	"workload.validate_ms", "pathsim.decompose_ms", "sampling.sample_ms",
	"pathsim.scenario_ms", "flowsim.run_ms", "feature.build_ms",
	"model.predict_ms", "agg.aggregate_ms",
}

// reenact runs one estimate serially on the calling goroutine from the
// exported layer calls, in the order Estimator.Estimate runs them, with one
// span per call. It returns the answer and the time per layer in ms (plus
// the layer counts). PredictBatch's per-sample output does not depend on
// batch composition, so the answer equals Estimate's bit for bit — the
// caller asserts that, which is what licenses reading these times as the
// real pipeline's.
func reenact(ctx context.Context, tr *tracer, op int, in estimateInput) (answer, map[string]float64, error) {
	m := make(map[string]float64)
	root := tr.reserve("core.estimate_reenacted", -1, op)
	timed := func(name string, parent int, f func() error) error {
		end := tr.begin(name, parent, op)
		err := f()
		m[name+"_ms"] += end()
		return err
	}

	d := in.d
	if d == nil {
		if err := timed("workload.validate", root, func() error {
			return workload.Workload{Topo: in.t, Flows: in.flows}.Validate()
		}); err != nil {
			return nil, nil, err
		}
		if err := timed("pathsim.decompose", root, func() (err error) {
			d, err = pathsim.Decompose(in.t, in.flows)
			return err
		}); err != nil {
			return nil, nil, err
		}
	}
	m["pathsim.paths_total"] = float64(len(d.Paths))

	var distinct, mult []int
	if err := timed("sampling.sample", root, func() error {
		sample, err := sampling.Weighted(d.FgWeights(), in.numPaths, rng.New(in.seed))
		if err != nil {
			return err
		}
		distinct, mult = sampling.Dedup(sample)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	m["sampling.distinct_paths"] = float64(len(distinct))

	// Featurize in index order and predict each micro-batch the moment it
	// fills, as the streamed pipeline does on one worker, so samples are
	// released at the same points and the heap looks the same.
	outs := make([]agg.PathOutput, len(distinct))
	batch := make([]*model.Sample, 0, core.DefaultBatchSize)
	flush := func(hi int) error {
		var preds [][]float64
		if err := timed("model.predict", root, func() (err error) {
			preds, err = in.net.PredictBatch(ctx, batch)
			return err
		}); err != nil {
			return err
		}
		m["model.batches"]++
		for k, pred := range preds {
			out := &outs[hi-len(batch)+k]
			out.Buckets = make([][]float64, feature.NumOutputBuckets)
			for b := range out.Buckets {
				if out.Counts[b] > 0 {
					out.Buckets[b] = pred[b*feature.NumPercentiles : (b+1)*feature.NumPercentiles]
				}
			}
		}
		batch = batch[:0]
		return nil
	}
	for i, pi := range distinct {
		p := &d.Paths[pi]
		pathSpan := tr.reserve("core.path", root, op)
		var sc *pathsim.Scenario
		if err := timed("pathsim.scenario", pathSpan, func() (err error) {
			sc, err = d.Scenario(p)
			return err
		}); err != nil {
			return nil, nil, err
		}
		var fs *pathsim.FlowSimResult
		if err := timed("flowsim.run", pathSpan, func() (err error) {
			fs, err = sc.RunFlowSimContext(ctx)
			return err
		}); err != nil {
			return nil, nil, err
		}
		m["flowsim.flows_simulated"] += float64(len(sc.Flows))
		_ = timed("feature.build", pathSpan, func() error { // cannot fail
			batch = append(batch, model.BuildInputs(fs.Fg.Sizes, fs.Fg.Slowdown, fs.BgSizes, fs.BgSldn,
				in.cfg, d.T.RouteRates(p.Links), d.T.RouteDelays(p.Links)))
			outs[i] = agg.PathOutput{
				Counts: feature.BucketCounts(fs.Fg.Sizes, feature.OutputBucketBounds),
				Mult:   mult[i],
			}
			return nil
		})
		tr.finish(pathSpan)
		if len(batch) == core.DefaultBatchSize || i == len(distinct)-1 {
			if err := flush(i + 1); err != nil {
				return nil, nil, err
			}
		}
	}
	m["model.us_per_sample"] = m["model.predict_ms"] * 1000 / float64(len(distinct))

	var est *agg.NetworkEstimate
	if err := timed("agg.aggregate", root, func() (err error) {
		est, err = agg.Aggregate(outs)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var per [feature.NumOutputBuckets]float64
	for b := range per {
		per[b] = est.BucketP99(b)
	}
	ans := answerOf(per, est.CombinedP99())
	// The service's last step; the library call has no counterpart, so it is
	// timed but kept out of the closure sum.
	if err := timed("serve.encode", root, func() error {
		_, err := json.Marshal(map[string]any{"p99": ans, "distinct_paths": len(distinct), "total_paths": len(d.Paths)})
		return err
	}); err != nil {
		return nil, nil, err
	}
	m["core.reenacted_ms"] = tr.finish(root)
	return ans, m, nil
}

// ledger runs rounds of {Estimate at GOMAXPROCS, Estimate at one worker,
// re-enacted pipeline} on in until bg is spent and returns the per-layer
// metrics as medians over the rounds. core.orchestration_ms is defined as
// the 1-worker wall minus the layer times, so the ledger closes by
// construction and whatever the layers do not explain is reported, not
// hidden. It fails if any of the three disagrees with want.
func ledger(ctx context.Context, tr *tracer, bg budget, in estimateInput, want answer) (map[string]float64, int, error) {
	var rounds []map[string]float64
	clock := bg.start()
	for n := 0; n == 0 || !clock.done(0, n); n++ {
		m := make(map[string]float64)
		for _, w := range []struct {
			name    string
			workers int
		}{{"core.estimate", 0}, {"core.estimate_1worker", 1}} {
			end := tr.begin(w.name, -1, n)
			got, err := in.estimate(ctx, w.workers)
			m[w.name+"_ms"] = end()
			if err != nil {
				return nil, 0, err
			}
			if !got.equal(want) {
				return nil, 0, fmt.Errorf("Estimate at workers=%d gave %v, reference %v", w.workers, got, want)
			}
		}
		got, layers, err := reenact(ctx, tr, n, in)
		if err != nil {
			return nil, 0, fmt.Errorf("re-enacted pipeline: %w", err)
		}
		if !got.equal(want) {
			return nil, 0, fmt.Errorf("re-enacted pipeline gave %v, Estimator.Estimate gave %v", got, want)
		}
		for k, v := range layers {
			m[k] = v
		}
		rounds = append(rounds, m)
	}
	out := make(map[string]float64)
	for k := range rounds[0] {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = r[k]
		}
		out[k] = median(vals)
	}
	var explained float64
	for _, k := range pipelineLayers {
		explained += out[k]
	}
	out["core.orchestration_ms"] = out["core.estimate_1worker_ms"] - explained
	out["core.speedup_vs_1worker"] = out["core.estimate_1worker_ms"] / out["core.estimate_ms"]
	out["bench.trace_overhead_pct"] = 100 * (out["core.reenacted_ms"]/out["core.estimate_1worker_ms"] - 1)
	return out, len(rounds), nil
}

// references computes the library answer for each distinct request on the
// dense workload with one-worker estimators, GOMAXPROCS of them at a time.
func references(ctx context.Context, dn *dense, net *model.Net, reqs map[string]request) (map[string]answer, error) {
	keys := make([]string, 0, len(reqs))
	for k := range reqs {
		keys = append(keys, k)
	}
	refs := make(map[string]answer, len(keys))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan string)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				rq := reqs[k]
				cfg, err := rq.config()
				var ans answer
				if err == nil {
					ans, err = estimateInput{
						t: dn.ft.Topology, flows: dn.flows, d: dn.d, net: net,
						numPaths: rq.numPaths, seed: rq.seed, cfg: cfg,
					}.estimate(ctx, 1)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for %s: %w", k, err)
				}
				refs[k] = ans
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return refs, firstErr
}

// accuracy is p99_err_pct: |m3 combined p99 - packet-level p99| as a
// percentage of the packet-level p99, on the dense workload's default-config
// request (seed 1, numPaths paths). Deterministic for a given tree.
func accuracy(ctx context.Context, dn *dense, net *model.Net, numPaths int) (float64, error) {
	m3, err := estimateInput{
		t: dn.ft.Topology, flows: dn.flows, d: dn.d, net: net,
		numPaths: numPaths, seed: 1, cfg: packetsim.DefaultConfig(),
	}.estimate(ctx, 0)
	if err != nil {
		return 0, err
	}
	gt, err := core.RunGroundTruth(ctx, dn.ft.Topology, dn.flows, packetsim.DefaultConfig())
	if err != nil {
		return 0, fmt.Errorf("ground truth: %w", err)
	}
	est, ok := m3["combined"]
	if !ok || gt.P99() <= 0 {
		return 0, fmt.Errorf("no combined p99 to compare (m3 %v, truth %v)", m3, gt.P99())
	}
	return 100 * stats.AbsRelError(est, gt.P99()), nil
}
