package core

import (
	"context"
	"math"
	"testing"

	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/rng"
	"m3/internal/routing"
	"m3/internal/stats"
	"m3/internal/topo"
	"m3/internal/workload"
)

func testWorkload(t *testing.T, n int, seed uint64) (*topo.FatTree, []workload.Flow) {
	t.Helper()
	ft, err := topo.SmallFatTree(topo.Oversub2to1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	flows, err := workload.Generate(ft, routing.NewFatTreeRouter(ft), workload.Spec{
		NumFlows: n, Sizes: workload.WebServer, Matrix: workload.MatrixB(32, r),
		Burstiness: 1.5, MaxLoad: 0.5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft, flows
}

// tinyTrainedNet trains a very small model on a very small dataset — enough
// to exercise the full pipeline deterministically.
func tinyTrainedNet(t *testing.T) *model.Net {
	t.Helper()
	cfg := model.DefaultConfig()
	cfg.Dim = 16
	cfg.Heads = 2
	cfg.Layers = 1
	cfg.Hidden = 32
	net, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := model.Generate(context.Background(), model.DataConfig{
		Scenarios: 12, FgPerScenario: 80, BgPerLink: 0.4,
		Hops: []int{2, 4}, Seed: 11, Workers: 4,
		CCs: []packetsim.CCType{packetsim.DCTCP},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(samples, model.TrainOptions{
		Epochs: 8, Batch: 4, LR: 2e-3, ValFrac: 0.1, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestEstimateFlowSimMethod(t *testing.T) {
	ft, flows := testWorkload(t, 1200, 1)
	est := NewEstimator(nil, WithNumPaths(100), WithMethod(MethodFlowSim), WithSeed(3))
	res, err := est.Estimate(context.Background(), ft.Topology, flows, packetsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.DistinctPaths == 0 || res.DistinctPaths > 100 {
		t.Errorf("distinct paths = %d", res.DistinctPaths)
	}
	if res.TotalPaths < res.DistinctPaths {
		t.Error("total < distinct")
	}
	p99 := res.P99()
	if math.IsNaN(p99) || p99 <= 0 {
		t.Errorf("combined p99 = %v", p99)
	}
}

func TestEstimateNS3PathTracksGroundTruth(t *testing.T) {
	// The decomposition oracle should land near the full simulation (§2.1
	// reports ~2% error at paper scale; allow a loose band at test scale).
	ft, flows := testWorkload(t, 1500, 2)
	cfg := packetsim.DefaultConfig()
	gt, err := RunGroundTruth(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(nil, WithNumPaths(150), WithMethod(MethodNS3Path), WithSeed(4))
	res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := stats.AbsRelError(res.P99(), gt.P99())
	if e > 0.5 {
		t.Errorf("ns-3-path p99 error = %v (est %v, truth %v)", e, res.P99(), gt.P99())
	}
}

func TestEstimateMLRuns(t *testing.T) {
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 1000, 5)
	est := NewEstimator(net, WithNumPaths(80), WithSeed(6))
	res, err := est.Estimate(context.Background(), ft.Topology, flows, packetsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p99 := res.P99()
	if math.IsNaN(p99) || p99 < 1 {
		t.Errorf("ML p99 = %v", p99)
	}
	per := res.P99PerBucket()
	any := false
	for _, v := range per {
		if !math.IsNaN(v) {
			any = true
			if v < 1 {
				t.Errorf("bucket p99 = %v < 1", v)
			}
		}
	}
	if !any {
		t.Error("all buckets empty")
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
}

func TestEstimateDeterministicAcrossParallelism(t *testing.T) {
	ft, flows := testWorkload(t, 800, 7)
	mk := func(workers int) float64 {
		est := NewEstimator(nil, WithNumPaths(60), WithMethod(MethodFlowSim), WithSeed(9), WithWorkers(workers))
		res, err := est.Estimate(context.Background(), ft.Topology, flows, packetsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.P99()
	}
	if a, b := mk(1), mk(8); a != b {
		t.Errorf("parallelism changed estimate: %v vs %v", a, b)
	}
}

func TestEstimateValidation(t *testing.T) {
	ft, flows := testWorkload(t, 50, 8)
	cfg := packetsim.DefaultConfig()
	ctx := context.Background()
	e := NewEstimator(nil, WithNumPaths(10)) // MethodML but no net
	if _, err := e.Estimate(ctx, ft.Topology, flows, cfg); err == nil {
		t.Error("MethodML without model accepted")
	}
	e = NewEstimator(nil, WithNumPaths(0), WithMethod(MethodFlowSim))
	if _, err := e.Estimate(ctx, ft.Topology, flows, cfg); err == nil {
		t.Error("zero paths accepted")
	}
	e = NewEstimator(nil, WithNumPaths(10), WithMethod(MethodFlowSim))
	bad := cfg
	bad.InitWindow = 0
	if _, err := e.Estimate(ctx, ft.Topology, flows, bad); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := e.Estimate(ctx, ft.Topology, nil, cfg); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestGroundTruthBuckets(t *testing.T) {
	ft, flows := testWorkload(t, 600, 10)
	gt, err := RunGroundTruth(context.Background(), ft.Topology, flows, packetsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if gt.P99() < 1 {
		t.Errorf("ground-truth p99 = %v", gt.P99())
	}
	per := gt.P99PerBucket()
	// WebServer workload must populate the small buckets.
	if math.IsNaN(per[0]) || per[0] < 1 {
		t.Errorf("bucket 0 p99 = %v", per[0])
	}
	if gt.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
}

func TestMethodString(t *testing.T) {
	if MethodML.String() != "m3" || MethodFlowSim.String() != "flowsim" ||
		MethodNS3Path.String() != "ns3-path" {
		t.Error("method names wrong")
	}
}

// TestStageTimingsClose pins StageTimings to the wall clock: with one worker
// nothing overlaps, so the five stages must account for at least 80% of
// Elapsed. It fails if a stage clock skips a layer (PathSim once started
// after pathsim.Scenario, the largest one).
func TestStageTimingsClose(t *testing.T) {
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 12000, 5)
	for _, m := range []Method{MethodML, MethodFlowSim} {
		est := NewEstimator(net, WithNumPaths(60), WithSeed(3), WithMethod(m), WithWorkers(1))
		res, err := est.Estimate(context.Background(), ft.Topology, flows, packetsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stages
		sum := st.Decompose + st.Sample + st.PathSim + st.Predict + st.Aggregate
		if float64(sum) < 0.8*float64(res.Elapsed) {
			t.Errorf("%v: stages sum to %v of %v elapsed (%.0f%%), want >= 80%%: %+v",
				m, sum, res.Elapsed, 100*float64(sum)/float64(res.Elapsed), st)
		}
	}
}
