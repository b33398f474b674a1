package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"

	"m3/internal/core"
	"m3/internal/feature"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/pathsim"
	"m3/internal/rng"
	"m3/internal/routing"
	"m3/internal/topo"
	"m3/internal/workload"
)

// sizes are the op-independent dimensions of the four workloads. The shapes
// are fixed by the issue; the counts are scaled so a run fits the driver's
// time cap on a 2-core box.
type sizes struct {
	// Training set-up for the one model every workload shares.
	trainScenarios, trainEpochs int
	// tinyModel replaces the default architecture with a 16-dim one (smoke
	// runs only: predictions are meaningless, timings are not reported).
	tinyModel bool

	coldFlows, coldPaths int // cold_sparse_6144h
	denseFlows           int // registered workload of the three serve workloads
	sweepPaths           int // sweep_dense_256h and fleet_scatter_2r
	sweepCache           int
	hotPaths, hotKeys    int // hot_256h
	hotCache             int
	setupReps            int // set-ups per untraced run; setup_s is their median
}

var fullSizes = sizes{
	trainScenarios: 40, trainEpochs: 8,
	coldFlows: 300_000, coldPaths: 128,
	denseFlows: 40_000,
	sweepPaths: 200, sweepCache: 16,
	hotPaths: 32, hotKeys: 32, hotCache: 64,
	setupReps: 3,
}

var smokeSizes = sizes{
	trainScenarios: 2, trainEpochs: 1, tinyModel: true,
	coldFlows: 4000, coldPaths: 24,
	denseFlows: 2000,
	sweepPaths: 16, sweepCache: 4,
	hotPaths: 8, hotKeys: 4, hotCache: 8,
	setupReps: 2,
}

// denseSeed fixes the flows of the registered dense workload: the serve
// workloads draw their request sequence from -seed, not their flows, so
// p99_err_pct is one pinned number per commit.
const denseSeed = 7

// trainModel trains the shared model and returns it as checkpoint bytes, so
// each set-up loads it the way a deployment would.
func trainModel(ctx context.Context, sz sizes) ([]byte, uint64, error) {
	dc := model.DefaultDataConfig()
	dc.Scenarios = sz.trainScenarios
	dc.Workers = runtime.GOMAXPROCS(0)
	samples, err := model.Generate(ctx, dc)
	if err != nil {
		return nil, 0, fmt.Errorf("generate training set: %w", err)
	}
	cfg := model.DefaultConfig()
	if sz.tinyModel {
		cfg.Dim, cfg.Heads, cfg.Layers, cfg.Hidden = 16, 2, 1, 32
	}
	net, err := model.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	opt := model.DefaultTrainOptions()
	opt.Epochs = sz.trainEpochs
	if _, err := net.Train(samples, opt); err != nil {
		return nil, 0, fmt.Errorf("train: %w", err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		return nil, 0, fmt.Errorf("encode checkpoint: %w", err)
	}
	return buf.Bytes(), net.Fingerprint(), nil
}

func loadModel(ckpt []byte) (*model.Net, error) {
	net, err := model.Load(bytes.NewReader(ckpt))
	if err != nil {
		return nil, fmt.Errorf("load checkpoint: %w", err)
	}
	return net, nil
}

// genFlows draws n WebServer flows under traffic matrix B, the generator
// behind both the library workload and (through the same spec over HTTP) the
// registered one.
func genFlows(ft *topo.FatTree, n int, burstiness float64, seed uint64) ([]workload.Flow, error) {
	mat, err := workload.Matrix("B", ft.Cfg.NumRacks(), rng.New(seed))
	if err != nil {
		return nil, err
	}
	return workload.Generate(ft, routing.NewFatTreeRouter(ft), workload.Spec{
		NumFlows: n, Sizes: workload.WebServer, Matrix: mat,
		Burstiness: burstiness, MaxLoad: 0.5, Seed: seed,
	})
}

// dense is the library-side twin of the registered serve workload: the same
// topology and flows built directly, for reference answers, ground truth and
// the re-enacted pipeline.
type dense struct {
	ft    *topo.FatTree
	flows []workload.Flow
	d     *pathsim.Decomposition
}

const denseBurstiness = 2

func newDense(n int) (*dense, error) {
	ft, err := topo.SmallFatTree(topo.Oversub2to1)
	if err != nil {
		return nil, err
	}
	flows, err := genFlows(ft, n, denseBurstiness, denseSeed)
	if err != nil {
		return nil, err
	}
	d, err := pathsim.Decompose(ft.Topology, flows)
	if err != nil {
		return nil, err
	}
	return &dense{ft: ft, flows: flows, d: d}, nil
}

// request is one estimate as a client states it: knob overrides over the
// default config (nil = default), sampling seed and path budget.
type request struct {
	knobs    map[string]string
	seed     uint64
	numPaths int
}

// key identifies the request's answer: two requests with equal keys must
// get bit-identical p99 maps.
func (r request) key() string {
	k := strconv.FormatUint(r.seed, 10) + "/" + strconv.Itoa(r.numPaths)
	for _, name := range sweepKnobs {
		if v, ok := r.knobs[name]; ok {
			k += "/" + name + "=" + v
		}
	}
	return k
}

func (r request) config() (packetsim.Config, error) {
	cfg := packetsim.DefaultConfig()
	for _, name := range sweepKnobs {
		if v, ok := r.knobs[name]; ok {
			if err := cfg.Set(name, v); err != nil {
				return cfg, err
			}
		}
	}
	return cfg, cfg.Validate()
}

// The sweep's config space: every combination is valid, none equals the
// default config (initwnd 15000 is not on the grid), so a warm-up on the
// default never pre-fills a timed key.
var (
	sweepKnobs = []string{"buffer", "cc", "initwnd", "pfc"}
	sweepCCs   = []string{"dctcp", "dcqcn", "timely", "hpcc"}
)

const (
	sweepWindows = 32 // initwnd 5000..29800 step 800
	sweepBuffers = 32 // buffer 200000..479000 step 9000
	sweepSpace   = 4 * 2 * sweepWindows * sweepBuffers
)

// sweepConfig decodes grid index i (0 <= i < sweepSpace) into knob overrides.
func sweepConfig(i int) map[string]string {
	cc := sweepCCs[i%4]
	i /= 4
	pfc := []string{"off", "on"}[i%2]
	i /= 2
	wnd := 5000 + 800*(i%sweepWindows)
	i /= sweepWindows
	buf := 200_000 + 9000*(i%sweepBuffers)
	return map[string]string{
		"cc": cc, "pfc": pfc,
		"initwnd": strconv.Itoa(wnd), "buffer": strconv.Itoa(buf),
	}
}

// sweepOrder is the seeded order in which a run visits the config grid: a
// permutation, so every op of a run has a distinct config.
func sweepOrder(seed uint64) []int { return rng.New(seed).Perm(sweepSpace) }

// hotOrder is a seeded sequence of n key indices in [0, keys): shuffled
// blocks, each a permutation of all keys, so every key is equally hot and no
// run of ops favours one.
func hotOrder(seed uint64, keys, n int) []int {
	r := rng.New(seed)
	out := make([]int, 0, n+keys)
	for len(out) < n {
		out = append(out, r.Perm(keys)...)
	}
	return out[:n]
}

// answer is an estimate's p99 slowdown per output bucket plus "combined",
// keyed and filtered exactly as the service's response: non-finite values
// (empty buckets) are absent.
type answer map[string]float64

var bucketNames = [feature.NumOutputBuckets]string{"le_1kb", "1kb_10kb", "10kb_50kb", "gt_50kb"}

func answerOf(per [feature.NumOutputBuckets]float64, combined float64) answer {
	a := make(answer, len(per)+1)
	put := func(k string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			a[k] = v
		}
	}
	for b, name := range bucketNames {
		put(name, per[b])
	}
	put("combined", combined)
	return a
}

func estimateAnswer(e *core.Estimate) answer { return answerOf(e.P99PerBucket(), e.P99()) }

// equal reports bit-identity: same keys, same float64 bits.
func (a answer) equal(b answer) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
