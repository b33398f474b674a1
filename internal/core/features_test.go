package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m3/internal/faultinject"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/rng"
)

// sameEstimate reports the first bit-level difference between two
// estimates: per-bucket and combined p99, and the full aggregate (every
// pooled sample and bucket weight).
func sameEstimate(a, b *Estimate) error {
	if a.DistinctPaths != b.DistinctPaths || a.Degraded != b.Degraded || a.DegradedPaths != b.DegradedPaths {
		return fmt.Errorf("shape differs: %d/%v/%d vs %d/%v/%d", a.DistinctPaths, a.Degraded,
			a.DegradedPaths, b.DistinctPaths, b.Degraded, b.DegradedPaths)
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	pa, pb := a.P99PerBucket(), b.P99PerBucket()
	for i := range pa {
		if !same(pa[i], pb[i]) {
			return fmt.Errorf("bucket %d p99 %v vs %v", i, pa[i], pb[i])
		}
	}
	if !same(a.P99(), b.P99()) {
		return fmt.Errorf("combined p99 %v vs %v", a.P99(), b.P99())
	}
	poolA, weightA := a.Agg.Snapshot()
	poolB, weightB := b.Agg.Snapshot()
	for bk := range poolA {
		if !same(weightA[bk], weightB[bk]) || len(poolA[bk]) != len(poolB[bk]) {
			return fmt.Errorf("bucket %d weight/size differs", bk)
		}
		for j := range poolA[bk] {
			if !same(poolA[bk][j], poolB[bk][j]) {
				return fmt.Errorf("bucket %d sample %d: %v vs %v", bk, j, poolA[bk][j], poolB[bk][j])
			}
		}
	}
	return nil
}

// inputHashed wraps a backend and adds to every output an offset drawn from
// all the bits of the sample's inputs. The tiny test nets predict 1 (the
// clamp) nearly everywhere, so without it an estimate would not show a
// stale or mismatched input.
type inputHashed struct{ model.Predictor }

func (p inputHashed) PredictBatch(ctx context.Context, samples []*model.Sample) ([][]float64, error) {
	outs, err := p.Predictor.PredictBatch(ctx, samples)
	if err != nil {
		return nil, err
	}
	for i, s := range samples {
		h := fnv64(fnvOffset64)
		for _, v := range append([][]float64{s.FgFeat, s.Spec}, s.BgFeats...) {
			for _, x := range v {
				h.mix(math.Float64bits(x))
			}
		}
		for j := range outs[i] {
			outs[i][j] += float64(uint64(h)>>(j%54)&1023) / 256
		}
	}
	return outs, nil
}

// TestFeatureCacheBitIdentical: an estimate served from a warm feature
// cache equals the cache-free one-worker estimate bit for bit, across
// random configs, both backends, the ML and flowSim methods, micro-batch
// sizes, pool widths and fallback on or off — and runs no flowSim at all.
func TestFeatureCacheBitIdentical(t *testing.T) {
	tiny := tinyTrainedNet(t)
	q, err := model.Quantize(tiny)
	if err != nil {
		t.Fatal(err)
	}
	net := inputHashed{tiny}
	ft, flows := testWorkload(t, 900, 41)
	hash := HashWorkload(ft.Topology, flows)
	fc := NewFeatureCache(FeatureCacheBytes)
	const paths, seed = 40, 5
	warm := NewEstimator(net, WithNumPaths(paths), WithSeed(seed), WithFeatureCache(fc, hash))
	if _, err := warm.Estimate(context.Background(), ft.Topology, flows, packetsim.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	misses := fc.Stats().Misses

	r := rng.New(17)
	for c := 0; c < 8; c++ {
		cfg := model.RandomNetConfig(r)
		for _, backend := range []model.Predictor{net, inputHashed{q}} {
			for _, method := range []Method{MethodML, MethodFlowSim} {
				want, err := NewEstimator(backend, WithNumPaths(paths), WithSeed(seed), WithMethod(method),
					WithWorkers(1)).Estimate(context.Background(), ft.Topology, flows, cfg)
				if err != nil {
					t.Fatalf("cfg%d/%s/%v: cache-free: %v", c, backend.Kind(), method, err)
				}
				for _, bs := range []int{1, DefaultBatchSize} {
					for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
						for _, fallback := range []bool{false, true} {
							name := fmt.Sprintf("cfg%d/%s/%v/bs=%d/w=%d/fb=%v",
								c, backend.Kind(), method, bs, workers, fallback)
							got, err := NewEstimator(backend, WithNumPaths(paths), WithSeed(seed), WithMethod(method),
								WithBatchSize(bs), WithWorkers(workers), WithFlowSimFallback(fallback),
								WithFeatureCache(fc, hash)).Estimate(context.Background(), ft.Topology, flows, cfg)
							if err != nil {
								t.Fatalf("%s: cached: %v", name, err)
							}
							if err := sameEstimate(got, want); err != nil {
								t.Fatalf("%s: warm cache differs from cache-free: %v", name, err)
							}
						}
					}
				}
			}
		}
	}
	if got := fc.Stats().Misses; got != misses {
		t.Errorf("warm estimates ran flowSim %d times, want 0", got-misses)
	}
}

// TestFeatureCacheFallbackReadsEntry: a model that fails every batch, with
// fallback on, answers from the cached flowSim output — exactly the
// cache-free flowSim estimate, with no second flowSim run.
func TestFeatureCacheFallbackReadsEntry(t *testing.T) {
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 900, 43)
	hash := HashWorkload(ft.Topology, flows)
	cfg := packetsim.DefaultConfig()
	fc := NewFeatureCache(FeatureCacheBytes)
	opts := []Option{WithNumPaths(40), WithSeed(2), WithFeatureCache(fc, hash), WithFlowSimFallback(true)}
	if _, err := NewEstimator(net, opts...).Estimate(context.Background(), ft.Topology, flows, cfg); err != nil {
		t.Fatal(err)
	}
	misses := fc.Stats().Misses
	got, err := NewEstimator(&failingPredictor{inner: net}, opts...).Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || got.DegradedPaths != got.DistinctPaths {
		t.Fatalf("degraded %v on %d/%d paths, want every path", got.Degraded, got.DegradedPaths, got.DistinctPaths)
	}
	want, err := NewEstimator(nil, WithNumPaths(40), WithSeed(2), WithMethod(MethodFlowSim)).
		Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want.Degraded, want.DegradedPaths = got.Degraded, got.DegradedPaths // same numbers, flagged
	if err := sameEstimate(got, want); err != nil {
		t.Errorf("fallback differs from the flowSim estimate: %v", err)
	}
	if n := fc.Stats().Misses - misses; n != 0 {
		t.Errorf("fallback re-ran flowSim on %d paths", n)
	}
}

// TestFeatureCacheSingleFlight: concurrent estimates of different configs
// over the same sampled paths run flowSim exactly once per path, on a
// one-worker pool (where a waiter blocking the only worker would deadlock)
// and on a wider one. Run it under -race.
func TestFeatureCacheSingleFlight(t *testing.T) {
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 900, 47)
	hash := HashWorkload(ft.Topology, flows)
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		fc := NewFeatureCache(FeatureCacheBytes)
		plan, err := NewEstimator(net, WithNumPaths(40), WithSeed(3)).Plan(ft.Topology, flows)
		if err != nil {
			t.Fatal(err)
		}
		const callers = 8
		r := rng.New(uint64(workers))
		cfgs := make([]packetsim.Config, callers)
		for i := range cfgs {
			cfgs[i] = model.RandomNetConfig(r)
		}
		var wg sync.WaitGroup
		done := make(chan struct{})
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				est := NewEstimator(net, WithNumPaths(40), WithSeed(3), WithBatchSize(4),
					WithPool(p), WithFeatureCache(fc, hash))
				if _, err := est.Estimate(context.Background(), ft.Topology, flows, cfgs[i]); err != nil {
					t.Error(err)
				}
			}(i)
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("workers=%d: concurrent estimates deadlocked on the feature cache", workers)
		}
		p.Close()
		st := fc.Stats()
		n := int64(len(plan.Distinct))
		if st.Misses != n || st.Hits != (callers-1)*n || st.Entries != len(plan.Distinct) {
			t.Errorf("workers=%d: stats %+v, want %d misses, %d hits, %d entries",
				workers, st, n, (callers-1)*n, n)
		}
	}
}

// TestFeatureCacheSweepStarts: successive estimates start their sweeps far
// apart, so concurrent ones lead different paths; a nil cache always starts
// at 0.
func TestFeatureCacheSweepStarts(t *testing.T) {
	var none *FeatureCache
	if got := none.sweepStart(200); got != 0 {
		t.Errorf("nil cache starts at %d, want 0", got)
	}
	fc := NewFeatureCache(FeatureCacheBytes)
	const n = 200
	seen := make(map[int]bool)
	prev := -1
	for k := 0; k < 8; k++ {
		s := fc.sweepStart(n)
		if s < 0 || s >= n || seen[s] {
			t.Fatalf("sweep %d starts at %d: out of range or repeated", k, s)
		}
		if k == 0 && s != 0 {
			t.Errorf("first sweep starts at %d, want 0", s)
		}
		if prev >= 0 {
			if gap := min((s-prev+n)%n, (prev-s+n)%n); gap < n/3 {
				t.Errorf("sweeps %d and %d start %d apart, want >= %d", k-1, k, gap, n/3)
			}
		}
		seen[s], prev = true, s
	}
	if got := fc.sweepStart(0); got != 0 {
		t.Errorf("empty sweep starts at %d", got)
	}
}

var testEntry = &pathEntry{feat: &model.PathFeatures{FgFeat: make([]float64, 10)}}

// TestFeatureCacheLeaderFailure: a leader that is cancelled, errors, or
// panics caches nothing, and the caller waiting on it takes over and
// computes the entry itself.
func TestFeatureCacheLeaderFailure(t *testing.T) {
	key := featureKey{workload: 1, path: 7}
	for _, mode := range []string{"cancel", "error", "panic"} {
		fc := NewFeatureCache(FeatureCacheBytes)
		leaderCtx, cancelLeader := context.WithCancel(context.Background())
		leaderIn, release := make(chan struct{}), make(chan struct{})
		leaderDone := make(chan error, 1)
		go func() {
			defer func() {
				if rec := recover(); rec != nil {
					leaderDone <- fmt.Errorf("panic: %v", rec)
				}
			}()
			_, err := fc.do(leaderCtx, key, func() (*pathEntry, error) {
				close(leaderIn)
				<-release
				switch mode {
				case "cancel":
					return nil, leaderCtx.Err()
				case "error":
					return nil, errors.New("injected flowSim failure")
				}
				panic("injected flowSim panic")
			})
			leaderDone <- err
		}()
		<-leaderIn
		waiterDone := make(chan error, 1)
		var got *pathEntry
		go func() {
			var err error
			got, err = fc.do(context.Background(), key, func() (*pathEntry, error) { return testEntry, nil })
			waiterDone <- err
		}()
		select {
		case <-waiterDone:
			t.Fatalf("%s: waiter returned while the leader was still computing", mode)
		case <-time.After(20 * time.Millisecond):
		}
		cancelLeader()
		close(release)
		if err := <-leaderDone; err == nil {
			t.Errorf("%s: leader succeeded", mode)
		}
		if err := <-waiterDone; err != nil || got != testEntry {
			t.Errorf("%s: waiter got (%v, %v), want its own computation", mode, got, err)
		}
		if st := fc.Stats(); st.Misses != 2 || st.Entries != 1 {
			t.Errorf("%s: stats %+v, want 2 misses (leader, then waiter) and 1 entry", mode, st)
		}
	}
}

// TestFeatureCacheCancelledEstimate: an estimate cancelled part-way caches
// only the paths it finished; the next estimate runs flowSim on exactly the
// rest and matches the cache-free answer.
func TestFeatureCacheCancelledEstimate(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	net := inputHashed{tinyTrainedNet(t)}
	ft, flows := testWorkload(t, 900, 53)
	hash := HashWorkload(ft.Topology, flows)
	cfg := packetsim.DefaultConfig()
	fc := NewFeatureCache(FeatureCacheBytes)
	opts := []Option{WithNumPaths(40), WithSeed(4), WithWorkers(1)}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	faultinject.Set("core.path", func(any) {
		if started.Add(1) == 6 {
			cancel()
		}
	})
	if _, err := NewEstimator(net, append(opts, WithFeatureCache(fc, hash))...).
		Estimate(ctx, ft.Topology, flows, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled estimate: %v", err)
	}
	faultinject.Clear()
	before := fc.Stats()
	if before.Entries == 0 || before.Entries > 6 {
		t.Fatalf("cancelled after 6 of the sampled paths started, %d cached", before.Entries)
	}
	got, err := NewEstimator(net, append(opts, WithFeatureCache(fc, hash))...).
		Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ran := fc.Stats().Misses - before.Misses; ran != int64(got.DistinctPaths-before.Entries) {
		t.Errorf("rerun computed %d paths, want the %d not cached", ran, got.DistinctPaths-before.Entries)
	}
	want, err := NewEstimator(net, opts...).Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameEstimate(got, want); err != nil {
		t.Fatal(err)
	}
}

// TestFeatureCacheByteBound: a budget of a few entries holds at most that
// many bytes, evicting least recently used paths, and the estimate is
// unchanged.
func TestFeatureCacheByteBound(t *testing.T) {
	net := inputHashed{tinyTrainedNet(t)}
	ft, flows := testWorkload(t, 900, 59)
	hash := HashWorkload(ft.Topology, flows)
	cfg := packetsim.DefaultConfig()
	const budget = 150 << 10 // a handful of 25–60 KB entries
	fc := NewFeatureCache(budget)
	opts := []Option{WithNumPaths(40), WithSeed(6)}
	got, err := NewEstimator(net, append(opts, WithFeatureCache(fc, hash))...).
		Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := fc.Stats()
	if st.Bytes > budget || st.Evictions == 0 || st.Entries == 0 ||
		st.Entries+int(st.Evictions) != got.DistinctPaths {
		t.Errorf("stats %+v over %d paths, want bytes <= %d with evictions", st, got.DistinctPaths, budget)
	}
	want, err := NewEstimator(net, opts...).Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameEstimate(got, want); err != nil {
		t.Fatal(err)
	}
}
