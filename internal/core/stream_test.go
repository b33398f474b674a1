package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"m3/internal/agg"
	"m3/internal/faultinject"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/pathsim"
	"m3/internal/pool"
)

// failingPredictor wraps a real backend and starts returning errors after
// failAfter successful PredictBatch calls (0 = fail immediately). It stands
// in for a model that breaks mid-estimate, which the faultinject hooks can't
// express (they fire only after a successful predict).
type failingPredictor struct {
	inner     model.Predictor
	failAfter int32
	calls     atomic.Int32
}

func (f *failingPredictor) PredictBatch(ctx context.Context, samples []*model.Sample) ([][]float64, error) {
	if f.calls.Add(1) > f.failAfter {
		return nil, errors.New("injected predict failure")
	}
	return f.inner.PredictBatch(ctx, samples)
}

func (f *failingPredictor) Fingerprint() uint64 { return f.inner.Fingerprint() }
func (f *failingPredictor) SelfCheck() error    { return f.inner.SelfCheck() }
func (f *failingPredictor) Kind() string        { return f.inner.Kind() }

// estimateMLStaged is the reference schedule the streamed pipeline is
// checked against: featurize every sampled path, then flush contiguous
// micro-batches through PredictBatch, as two full pool.Run stages with a
// barrier between them. It shares mlRun's featurize and predict with
// production and differs only in how batches form.
func (e *Estimator) estimateMLStaged(ctx context.Context, pool *Pool,
	d *pathsim.Decomposition, distinct, mult []int, cfg packetsim.Config) ([]agg.PathOutput, error) {

	outs := make([]agg.PathOutput, len(distinct))
	var pathSimNs, predictNs, degraded atomic.Int64
	r := e.newMLRun(d, distinct, mult, cfg, outs, &pathSimNs, &predictNs, &degraded)
	if err := pool.Run(ctx, len(distinct), r.featurize); err != nil {
		return nil, err
	}
	bs := e.batchSize
	numBatches := (len(distinct) + bs - 1) / bs
	err := pool.Run(ctx, numBatches, func(ctx context.Context, bi int) error {
		lo := bi * bs
		idx := make([]int, min(lo+bs, len(distinct))-lo)
		for k := range idx {
			idx[k] = lo + k
		}
		return r.predict(ctx, idx)
	})
	return outs, err
}

// TestStreamedMatchesStagedBitIdentical is the pipelined-parity property
// test (run with -count=2 under -race by scripts/check.sh): for both
// backends, across seeds and micro-batch sizes, the streaming pipeline must
// reproduce the staged reference's per-path outputs bit for bit — batch
// composition by completion order is invisible because PredictBatch output
// per sample is independent of its batchmates.
func TestStreamedMatchesStagedBitIdentical(t *testing.T) {
	net := tinyTrainedNet(t)
	q, err := model.Quantize(net)
	if err != nil {
		t.Fatal(err)
	}
	ft, flows := testWorkload(t, 900, 31)
	cfg := packetsim.DefaultConfig()
	p := NewPool(4)
	defer p.Close()
	for _, backend := range []model.Predictor{net, model.Predictor(q)} {
		for _, bs := range []int{1, 5, DefaultBatchSize} {
			for seed := uint64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%s/bs=%d/seed=%d", backend.Kind(), bs, seed)
				est := NewEstimator(backend, WithNumPaths(50), WithSeed(seed),
					WithBatchSize(bs), WithPool(p))
				plan, err := est.Plan(ft.Topology, flows)
				if err != nil {
					t.Fatal(err)
				}
				sr, err := est.RunShard(context.Background(), plan.D, plan.Distinct, plan.Mult, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := est.estimateMLStaged(context.Background(), p, plan.D, plan.Distinct, plan.Mult, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := sr.Outs
				if len(want) != len(got) {
					t.Fatalf("%s: %d vs %d outputs", name, len(want), len(got))
				}
				for i := range want {
					w, g := want[i], got[i]
					if w.Mult != g.Mult || fmt.Sprint(w.Counts) != fmt.Sprint(g.Counts) {
						t.Fatalf("%s: path %d skeleton differs", name, i)
					}
					for b := range w.Buckets {
						if len(w.Buckets[b]) != len(g.Buckets[b]) {
							t.Fatalf("%s: path %d bucket %d length differs", name, i, b)
						}
						for j := range w.Buckets[b] {
							if math.Float64bits(w.Buckets[b][j]) != math.Float64bits(g.Buckets[b][j]) {
								t.Fatalf("%s: path %d bucket %d[%d]: streamed %v != staged %v",
									name, i, b, j, g.Buckets[b][j], w.Buckets[b][j])
							}
						}
					}
				}
			}
		}
	}
}

// TestStreamedPredictErrorDegradesToFallback: a predictor that dies
// mid-stream must degrade the failed batches to the flowSim numbers (the
// whole run, here, since every call fails) and still produce the exact
// no-ML estimate, under the streaming pipeline.
func TestStreamedPredictErrorDegradesToFallback(t *testing.T) {
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 1200, 1)
	cfg := packetsim.DefaultConfig()
	fp := &failingPredictor{inner: net, failAfter: 0}
	est := NewEstimator(fp, WithNumPaths(40), WithSeed(3), WithBatchSize(8),
		WithFlowSimFallback(true))
	res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradedPaths != res.DistinctPaths {
		t.Errorf("Degraded=%v DegradedPaths=%d/%d, want whole run degraded",
			res.Degraded, res.DegradedPaths, res.DistinctPaths)
	}
	fs := NewEstimator(nil, WithNumPaths(40), WithSeed(3), WithMethod(MethodFlowSim))
	want, err := fs.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.P99() != want.P99() {
		t.Errorf("degraded p99 %v != flowSim p99 %v", res.P99(), want.P99())
	}
}

// TestStreamedPredictErrorCancelsFeaturize: with fallback off, the first
// predict failure must cancel the in-flight featurize stage — the error
// comes back promptly with most of the sampled paths never simulated.
func TestStreamedPredictErrorCancelsFeaturize(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 1200, 1)
	cfg := packetsim.DefaultConfig()

	var featurized atomic.Int32
	faultinject.Set("core.path", func(any) { featurized.Add(1) })

	fp := &failingPredictor{inner: net, failAfter: 0}
	est := NewEstimator(fp, WithNumPaths(200), WithSeed(3), WithBatchSize(2))
	plan, err := est.Plan(ft.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	_, err = est.RunShard(context.Background(), plan.D, plan.Distinct, plan.Mult, cfg)
	if err == nil || !strings.Contains(err.Error(), "injected predict failure") {
		t.Fatalf("RunShard = %v, want injected predict failure", err)
	}
	if n := int(featurized.Load()); n >= len(plan.Distinct) {
		t.Errorf("featurized %d of %d paths; predict failure did not cancel the featurize stage",
			n, len(plan.Distinct))
	}
}

// TestStreamedPredictPanicFailsRun: a panic in a streamed predict task is a
// bug, not a degradation — even with fallback enabled it must surface as a
// typed *pool.PanicError (and leave the estimator reusable), exactly like
// any other pool task.
func TestStreamedPredictPanicFailsRun(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 1200, 1)
	cfg := packetsim.DefaultConfig()

	fired := atomic.Bool{}
	faultinject.Set("core.predict", func(any) {
		if fired.CompareAndSwap(false, true) {
			panic("injected predict panic")
		}
	})
	est := NewEstimator(net, WithNumPaths(40), WithSeed(3), WithBatchSize(4),
		WithFlowSimFallback(true))
	_, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T (%v), want *pool.PanicError", err, err)
	}
	if pe.Value != "injected predict panic" {
		t.Errorf("panic value = %v", pe.Value)
	}

	faultinject.Clear()
	res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatalf("estimator unusable after recovered predict panic: %v", err)
	}
	if res.Degraded {
		t.Error("healthy rerun reported degraded")
	}
}

// TestStreamedWallTimings: a successful streamed ML estimate must report
// wall-clock extents for both stages, an overlap no larger than the shorter
// stage's wall, and an OverlapRatio in [0, 1].
func TestStreamedWallTimings(t *testing.T) {
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 900, 7)
	cfg := packetsim.DefaultConfig()
	est := NewEstimator(net, WithNumPaths(40), WithSeed(2), WithBatchSize(4))
	res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stages
	if st.PathSimWall <= 0 || st.PredictWall <= 0 {
		t.Errorf("walls PathSim=%v Predict=%v, want both > 0", st.PathSimWall, st.PredictWall)
	}
	if st.Overlap < 0 || st.Overlap > min(st.PathSimWall, st.PredictWall) {
		t.Errorf("overlap %v out of range (walls %v/%v)", st.Overlap, st.PathSimWall, st.PredictWall)
	}
	if r := res.OverlapRatio(); r < 0 || r > 1 {
		t.Errorf("OverlapRatio = %v, want [0,1]", r)
	}
}
