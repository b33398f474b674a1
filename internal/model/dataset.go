package model

import (
	"context"
	"fmt"
	"math"

	"m3/internal/feature"
	"m3/internal/flowsim"
	"m3/internal/packetsim"
	"m3/internal/pool"
	"m3/internal/rng"
	"m3/internal/topo"
	"m3/internal/unit"
	"m3/internal/workload"
)

// PathBaseRTT estimates the unloaded round-trip time of a path: propagation
// both ways plus one MTU serialization and one ACK serialization per hop.
// It matches the packet simulator's own base-RTT accounting.
func PathBaseRTT(rates []unit.Rate, delays []unit.Time) unit.Time {
	var rtt unit.Time
	for i, r := range rates {
		rtt += 2*delays[i] + unit.TxTime(unit.MTU+unit.HeaderBytes, r) +
			unit.TxTime(unit.HeaderBytes, r)
	}
	return rtt
}

// PathBDP returns the bandwidth-delay product of the path in bytes.
func PathBDP(rates []unit.Rate, delays []unit.Time) unit.ByteSize {
	if len(rates) == 0 {
		return 0
	}
	bottleneck := rates[0]
	for _, r := range rates {
		if r < bottleneck {
			bottleneck = r
		}
	}
	return unit.ByteSize(bottleneck.BytesPerSecond() * PathBaseRTT(rates, delays).Seconds())
}

// PathFeatures is the configuration-free part of a path's model input:
// everything flowSim and the path's links determine. m3 feeds the network
// configuration to the model, not to flowSim, so one PathFeatures serves
// every configuration a what-if asks about; Sample adds the configuration.
type PathFeatures struct {
	FgFeat  []float64   // log1p feature map of foreground flowSim slowdowns
	BgFeats [][]float64 // per-hop log1p feature maps of background slowdowns
	BDP     unit.ByteSize
	BaseRTT unit.Time
}

// NewPathFeatures builds a path's features from flowSim results on it:
// foreground sizes and slowdowns, per-hop background sizes and slowdowns,
// and the path's link parameters.
func NewPathFeatures(fgSizes []unit.ByteSize, fgSldn []float64,
	bgSizes [][]unit.ByteSize, bgSldn [][]float64,
	rates []unit.Rate, delays []unit.Time) *PathFeatures {

	f := &PathFeatures{
		FgFeat:  feature.BuildFeature(fgSizes, fgSldn).LogTransform(),
		BDP:     PathBDP(rates, delays),
		BaseRTT: PathBaseRTT(rates, delays),
	}
	for l := range bgSldn {
		f.BgFeats = append(f.BgFeats, feature.BuildFeature(bgSizes[l], bgSldn[l]).LogTransform())
	}
	return f
}

// Sample pairs the features with cfg's spec vector. The sample shares f's
// feature slices, which is safe because neither prediction nor f's other
// users write them.
func (f *PathFeatures) Sample(cfg packetsim.Config) *Sample {
	return &Sample{
		FgFeat:  f.FgFeat,
		BgFeats: f.BgFeats,
		Spec:    feature.SpecVector(cfg, f.BDP, f.BaseRTT),
	}
}

// BuildInputs assembles the model-input part of a Sample from flowSim
// results on a path, the network config, and the path's link parameters:
// NewPathFeatures followed by Sample.
func BuildInputs(fgSizes []unit.ByteSize, fgSldn []float64,
	bgSizes [][]unit.ByteSize, bgSldn [][]float64,
	cfg packetsim.Config, rates []unit.Rate, delays []unit.Time) *Sample {

	return NewPathFeatures(fgSizes, fgSldn, bgSizes, bgSldn, rates, delays).Sample(cfg)
}

// SetTarget attaches the ground-truth output map built from the foreground
// flows' true slowdowns.
func (s *Sample) SetTarget(fgSizes []unit.ByteSize, trueSldn []float64) {
	m := feature.BuildOutput(fgSizes, trueSldn)
	s.Target = m.Data
	s.Mask = make([]bool, feature.NumOutputBuckets)
	for b, c := range m.Counts {
		s.Mask[b] = c > 0
	}
}

// RandomNetConfig draws a network configuration uniformly from the Table 4
// sample space. Restrict lists the allowed protocols (empty = all four).
func RandomNetConfig(r *rng.RNG, restrict ...packetsim.CCType) packetsim.Config {
	ccs := restrict
	if len(ccs) == 0 {
		ccs = []packetsim.CCType{packetsim.DCTCP, packetsim.TIMELY, packetsim.DCQCN, packetsim.HPCC}
	}
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	cfg := packetsim.Config{
		CC:          ccs[r.Intn(len(ccs))],
		InitWindow:  unit.ByteSize(uniform(5e3, 30e3)),
		Buffer:      unit.ByteSize(uniform(200e3, 500e3)),
		PFC:         r.Intn(2) == 1,
		DCTCPK:      unit.ByteSize(uniform(5e3, 20e3)),
		HPCCEta:     uniform(0.70, 0.95),
		HPCCRateAI:  unit.Rate(uniform(500, 1000)) * unit.Mbps,
		TimelyTLow:  unit.Time(uniform(40e3, 60e3)),
		TimelyTHigh: unit.Time(uniform(100e3, 150e3)),
	}
	kmin := uniform(20e3, 50e3)
	cfg.DCQCNKmin = unit.ByteSize(kmin)
	cfg.DCQCNKmax = unit.ByteSize(uniform(50e3, 100e3))
	return cfg
}

// RandomSizeDist draws a size distribution from the Table 2 families:
// Pareto, exponential, Gaussian, or lognormal, with the size parameter
// theta in [5k, 50k].
func RandomSizeDist(r *rng.RNG) workload.SizeDist {
	theta := 5e3 + 45e3*r.Float64()
	switch r.Intn(4) {
	case 0:
		return workload.ParetoSize{MeanBytes: theta, Alpha: 1.2 + 1.8*r.Float64()}
	case 1:
		return workload.ExpSize{MeanBytes: theta}
	case 2:
		return workload.GaussianSize{MeanBytes: theta}
	default:
		return workload.LogNormalSize{MeanBytes: theta, Sigma: 0.5 + 1.5*r.Float64()}
	}
}

// DataConfig controls synthetic training-set generation (Table 2).
type DataConfig struct {
	Scenarios     int // number of parking-lot scenarios
	FgPerScenario int // foreground flows per scenario (paper: 20000)
	// FgMin/FgMax, when FgMax > 0, draw the foreground count log-uniformly
	// in [FgMin, FgMax] instead of using FgPerScenario. Real decompositions
	// of sparse workloads yield paths with very few foreground flows, so
	// training should cover that regime (the paper notes accuracy drops on
	// paths "deviating from our training distribution").
	FgMin, FgMax int
	BgPerLink    float64 // mean bg flows per link as a multiple of fg count
	// BgFlowsPerLink, when > 0, sets the mean background flows per link as
	// an absolute count (overrides BgPerLink). This matches real scenarios
	// where background volume is independent of foreground volume.
	BgFlowsPerLink float64
	Hops           []int // path lengths to cycle through (paper: 2, 4, 6)
	Seed           uint64
	Workers        int
	// VaryRates randomly swaps the 40 Gbps fabric links for 20 Gbps ones in
	// a fraction of scenarios (covering the 4-to-1 oversubscribed paths).
	VaryRates bool
	// CCs restricts the protocols sampled for ground truth (empty = all).
	CCs []packetsim.CCType
	// FixedConfig, if non-nil, pins the network config for every scenario.
	FixedConfig *packetsim.Config
}

// DefaultDataConfig returns a CPU-scale reduction of the paper's 120k-sim
// training set, tuned to the path regimes the estimator sees at this
// repository's workload scales.
func DefaultDataConfig() DataConfig {
	return DataConfig{
		Scenarios:      300,
		FgMin:          1,
		FgMax:          256,
		BgFlowsPerLink: 300,
		Hops:           []int{2, 4, 6},
		Seed:           1,
		Workers:        8,
		VaryRates:      true,
	}
}

// spanOf locates the contiguous run of original path links inside a route
// ([join, exit)); ok is false for routes that never touch the path (cannot
// happen for generated scenarios).
func spanOf(lot *topo.ParkingLot, route []topo.LinkID) (join, exit int, ok bool) {
	pos := make(map[topo.LinkID]int, len(lot.PathLinks))
	for i, l := range lot.PathLinks {
		pos[l] = i
	}
	join, exit = -1, -1
	for _, l := range route {
		if p, on := pos[l]; on {
			if join < 0 {
				join = p
			}
			exit = p + 1
		}
	}
	return join, exit, join >= 0
}

// GenerateScenarioSample builds one training sample: generate the synthetic
// parking-lot workload, extract flowSim features, and label with the packet
// simulator's foreground slowdowns. Cancelling ctx aborts either simulation
// mid-run with ctx.Err().
func GenerateScenarioSample(ctx context.Context, spec workload.SynthSpec, cfg packetsim.Config) (*Sample, error) {
	syn, err := workload.GenerateSynthetic(spec)
	if err != nil {
		return nil, err
	}
	fs, err := flowsim.RunContext(ctx, syn.Lot.Topology, syn.Flows)
	if err != nil {
		return nil, err
	}
	hops := syn.Lot.Hops()
	var fgSizes []unit.ByteSize
	var fgSldn []float64
	bgSizes := make([][]unit.ByteSize, hops)
	bgSldn := make([][]float64, hops)
	for i := range syn.Flows {
		f := &syn.Flows[i]
		if syn.IsFg(f.ID) {
			fgSizes = append(fgSizes, f.Size)
			fgSldn = append(fgSldn, fs.Slowdown[f.ID])
			continue
		}
		join, exit, ok := spanOf(syn.Lot, f.Route)
		if !ok {
			return nil, fmt.Errorf("model: background flow off path")
		}
		for l := join; l < exit; l++ {
			bgSizes[l] = append(bgSizes[l], f.Size)
			bgSldn[l] = append(bgSldn[l], fs.Slowdown[f.ID])
		}
	}
	rates := syn.Lot.RouteRates(syn.Lot.PathLinks)
	delays := syn.Lot.RouteDelays(syn.Lot.PathLinks)
	sample := BuildInputs(fgSizes, fgSldn, bgSizes, bgSldn, cfg, rates, delays)

	gt, err := packetsim.RunContext(ctx, syn.Lot.Topology, syn.Flows, cfg)
	if err != nil {
		return nil, err
	}
	var gtSldn []float64
	for i := range syn.Flows {
		if syn.IsFg(syn.Flows[i].ID) {
			gtSldn = append(gtSldn, gt.Slowdown[syn.Flows[i].ID])
		}
	}
	sample.SetTarget(fgSizes, gtSldn)
	return sample, nil
}

// Generate produces the synthetic training set in parallel on a worker pool
// sized by dc.Workers, aborting early with ctx.Err() on cancellation.
func Generate(ctx context.Context, dc DataConfig) ([]*Sample, error) {
	workers := dc.Workers
	if workers <= 0 {
		workers = 1
	}
	p := pool.New(workers)
	defer p.Close()
	return GenerateWithPool(ctx, dc, p)
}

// GenerateWithPool is Generate scheduling its per-scenario simulations on
// the caller's pool, so dataset generation shares cores with the other
// ground-truth producers in the process.
func GenerateWithPool(ctx context.Context, dc DataConfig, p *pool.Pool) ([]*Sample, error) {
	if dc.Scenarios <= 0 || (dc.FgPerScenario <= 0 && dc.FgMax <= 0) || len(dc.Hops) == 0 {
		return nil, fmt.Errorf("model: bad data config %+v", dc)
	}
	if dc.FgMax > 0 && (dc.FgMin <= 0 || dc.FgMin > dc.FgMax) {
		return nil, fmt.Errorf("model: need 0 < FgMin <= FgMax, got [%d, %d]", dc.FgMin, dc.FgMax)
	}
	root := rng.New(dc.Seed)
	type job struct {
		idx  int
		spec workload.SynthSpec
		cfg  packetsim.Config
	}
	jobs := make([]job, dc.Scenarios)
	for i := range jobs {
		r := root.Split(uint64(i) + 1)
		cfg := RandomNetConfig(r, dc.CCs...)
		if dc.FixedConfig != nil {
			cfg = *dc.FixedConfig
		}
		hops := dc.Hops[i%len(dc.Hops)]
		numFg := dc.FgPerScenario
		if dc.FgMax > 0 {
			// log-uniform in [FgMin, FgMax]
			lo, hi := math.Log(float64(dc.FgMin)), math.Log(float64(dc.FgMax)+1)
			numFg = int(math.Exp(lo + (hi-lo)*r.Float64()))
			numFg = max(dc.FgMin, min(numFg, dc.FgMax))
		}
		bgPerLink := dc.BgPerLink
		if dc.BgFlowsPerLink > 0 {
			// SynthSpec expresses bg volume as a multiple of fg count; draw
			// the absolute per-link count log-uniformly around the target so
			// the model sees both sparse and dense background populations.
			lo, hi := math.Log(dc.BgFlowsPerLink/4), math.Log(dc.BgFlowsPerLink*4)
			bgAbs := math.Exp(lo + (hi-lo)*r.Float64())
			bgPerLink = bgAbs / float64(numFg)
		}
		var rates []unit.Rate
		if dc.VaryRates && hops > 2 && r.Intn(3) == 0 {
			rates = workload.DefaultPathRates(hops)
			for j := 1; j < hops-1; j++ {
				rates[j] = 20 * unit.Gbps // 4-to-1 oversubscribed fabric
			}
		}
		jobs[i] = job{
			idx: i,
			spec: workload.SynthSpec{
				Hops:       hops,
				NumFg:      numFg,
				BgPerLink:  bgPerLink,
				Sizes:      RandomSizeDist(r),
				Burstiness: 1 + r.Float64(), // sigma in [1, 2]
				// The paper trains at 20-80% path load; real decompositions
				// also sample many nearly idle paths, so the range here
				// extends down to 5% to keep inference in-distribution.
				MaxLoad: 0.05 + 0.75*r.Float64(),
				Seed:    r.Uint64(),
				Rates:   rates,
			},
			cfg: cfg,
		}
	}
	samples := make([]*Sample, dc.Scenarios)
	err := p.Run(ctx, len(jobs), func(ctx context.Context, i int) error {
		j := jobs[i]
		s, err := GenerateScenarioSample(ctx, j.spec, j.cfg)
		if err != nil {
			return fmt.Errorf("model: scenario %d: %w", j.idx, err)
		}
		samples[j.idx] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return samples, nil
}
