package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"m3/internal/agg"
	"m3/internal/cache"
	"m3/internal/feature"
	"m3/internal/model"
	"m3/internal/pathsim"
)

// FeatureCacheBytes is the feature budget of the estimation service and of
// query sessions. A path's entry is 27–60 KB (an 8 KB feature map for the
// foreground and for each of 2–6 hops, plus the flowSim output), so this
// holds 1,100–2,400 paths: every distinct path of several 500-path samples.
const FeatureCacheBytes = 64 << 20

// pathEntry is one sampled path's configuration-free products: the model's
// input features, and flowSim's own answer bucketized into a path output
// with Mult unset. The output's Counts double as the ML answer's bucket
// occupancy; the whole output is what MethodFlowSim reports and what a
// failed prediction falls back to. Entries are shared read-only between
// estimates.
type pathEntry struct {
	feat    *model.PathFeatures
	flowSim agg.PathOutput
}

// newPathEntry runs the configuration-free half of path p's estimate:
// build its parking-lot scenario, run flowSim on it, and featurize.
func newPathEntry(ctx context.Context, d *pathsim.Decomposition, p *pathsim.Path) (*pathEntry, error) {
	sc, err := d.Scenario(p)
	if err != nil {
		return nil, err
	}
	fs, err := sc.RunFlowSimContext(ctx)
	if err != nil {
		return nil, err
	}
	return &pathEntry{
		feat: model.NewPathFeatures(fs.Fg.Sizes, fs.Fg.Slowdown, fs.BgSizes, fs.BgSldn,
			d.T.RouteRates(p.Links), d.T.RouteDelays(p.Links)),
		flowSim: outputFromSamples(fs.Fg.Sizes, fs.Fg.Slowdown, 0),
	}, nil
}

// flowSimOutput is the path's flowSim estimate drawn mult times.
func (e *pathEntry) flowSimOutput(mult int) agg.PathOutput {
	out := e.flowSim
	out.Mult = mult
	return out
}

// entryOverhead approximates an entry's fixed cost beyond its float data:
// the structs, slice headers and LRU bookkeeping.
const entryOverhead = 256

// bytes is the entry's share of a FeatureCache budget.
func (e *pathEntry) bytes() int64 {
	floats := len(e.feat.FgFeat) + feature.OutputDim
	for _, f := range e.feat.BgFeats {
		floats += len(f)
	}
	return int64(8*(floats+len(e.flowSim.Counts)) + entryOverhead)
}

// featureKey names one path's configuration-free products: the workload and
// the path's index in its decomposition, which the workload determines.
type featureKey struct {
	workload WorkloadHash
	path     int
}

// FeatureCache is a byte-bounded LRU of per-path configuration-free
// products — flowSim's run on the path's scenario, the model's feature maps
// and the bucketized flowSim output — with single-flight misses, so
// estimates of one workload under any configuration, method, model or
// backend pay the scenario build and flowSim once per path. It is keyed by
// workload and path alone; a model reload leaves it valid.
type FeatureCache struct {
	mu       sync.Mutex
	lru      *cache.LRU[featureKey, *pathEntry]
	inflight map[featureKey]*inflightFeatures

	sweeps    atomic.Uint64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// sweepStart returns the sampled path at which an estimate over n paths
// begins its sweep; it then visits start, start+1, ... modulo n. Successive
// estimates start golden-ratio-spaced apart, so estimates of one workload
// that run at the same time lead different paths instead of each waiting,
// with its worker idle, on the other's leader for the same path. The order
// decides only which micro-batch a path lands in, never its output. A nil
// cache starts every sweep at 0.
func (c *FeatureCache) sweepStart(n int) int {
	if c == nil || n == 0 {
		return 0
	}
	_, frac := math.Modf(float64(c.sweeps.Add(1)-1) * (math.Sqrt(5) - 1) / 2)
	return int(frac * float64(n))
}

type inflightFeatures struct {
	done chan struct{}
	ent  *pathEntry
	err  error
}

// NewFeatureCache returns a cache holding entries up to budget bytes in
// total (FeatureCacheBytes for the service and sessions).
func NewFeatureCache(budget int64) *FeatureCache {
	return &FeatureCache{
		lru:      cache.NewWeighted[featureKey, *pathEntry](budget, (*pathEntry).bytes),
		inflight: make(map[featureKey]*inflightFeatures),
	}
}

// errLeaderPanicked resolves an in-flight computation whose leader
// panicked, so its waiters take over instead of waiting forever; the panic
// itself propagates to the leader's pool task.
var errLeaderPanicked = errors.New("core: feature computation panicked")

// do returns the entry for key, or computes it via compute. Concurrent
// callers for one key share a single computation. A waiter only ever waits
// on a leader that is running compute right now — the leader registers
// itself from inside its own pool task, never on queued work — so waiting
// cannot deadlock a pool. A failed or cancelled leader caches nothing and
// one waiter takes over.
func (c *FeatureCache) do(ctx context.Context, key featureKey, compute func() (*pathEntry, error)) (*pathEntry, error) {
	for {
		c.mu.Lock()
		if ent, ok := c.lru.Get(key); ok {
			c.mu.Unlock()
			c.hits.Add(1)
			return ent, nil
		}
		if call, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if call.err == nil {
				c.hits.Add(1)
				return call.ent, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue
		}
		call := &inflightFeatures{done: make(chan struct{})}
		c.inflight[key] = call
		c.mu.Unlock()
		c.misses.Add(1)
		return c.lead(key, call, compute)
	}
}

// lead runs compute as key's leader and publishes the outcome, caching a
// success.
func (c *FeatureCache) lead(key featureKey, call *inflightFeatures, compute func() (*pathEntry, error)) (*pathEntry, error) {
	resolved := false
	defer func() {
		if !resolved {
			c.resolve(key, call, nil, errLeaderPanicked)
		}
	}()
	ent, err := compute()
	resolved = true
	c.resolve(key, call, ent, err)
	return ent, err
}

func (c *FeatureCache) resolve(key featureKey, call *inflightFeatures, ent *pathEntry, err error) {
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.evictions.Add(int64(c.lru.Add(key, ent)))
	}
	c.mu.Unlock()
	call.ent, call.err = ent, err
	close(call.done)
}

// FeatureStats is a point-in-time snapshot of a FeatureCache. Misses counts
// computations started — scenario builds and flowSim runs — so it repeats
// exactly for a given request sequence.
type FeatureStats struct {
	Hits      int64
	Misses    int64
	Entries   int
	Bytes     int64
	Evictions int64
}

// Stats snapshots the counters and the current size.
func (c *FeatureCache) Stats() FeatureStats {
	c.mu.Lock()
	entries, bytes := c.lru.Len(), c.lru.Used()
	c.mu.Unlock()
	return FeatureStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Entries:   entries,
		Bytes:     bytes,
		Evictions: c.evictions.Load(),
	}
}
