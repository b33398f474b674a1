package serve

import (
	"net/http"
	"testing"
)

// featureMetrics is the /metrics features block.
type featureMetrics struct {
	Hits, Misses, Entries, Bytes, Evictions int64
}

func scrapeFeatures(t *testing.T, s *Server) (featureMetrics, int64) {
	t.Helper()
	var m struct {
		Features featureMetrics `json:"features"`
		Cache    struct {
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	mustCode(t, do(t, s, "GET", "/metrics", nil, &m), http.StatusOK)
	return m.Features, m.Cache.Misses
}

// TestFeatureCacheSweep: a served sweep of distinct configs runs flowSim on
// the first op's distinct paths and never again.
func TestFeatureCacheSweep(t *testing.T) {
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 1000)
	configs := []map[string]string{
		{"cc": "dctcp"}, {"cc": "timely", "pfc": "0"}, {"cc": "hpcc", "initwnd": "20000"}, {"cc": "dcqcn", "buffer": "300000"},
	}
	var first int64
	for i, knobs := range configs {
		var est estimateResponse
		mustCode(t, do(t, s, "POST", "/v1/estimate", estimateRequest{
			Workload: "web", NumPaths: 40, Config: knobs,
		}, &est), http.StatusOK)
		if est.Cached {
			t.Fatalf("op %d: a new config hit the estimate cache", i)
		}
		feat, _ := scrapeFeatures(t, s)
		if i == 0 {
			first = feat.Misses
			if first != int64(est.DistinctPaths) {
				t.Fatalf("first op: %d flowSim runs for %d distinct paths", first, est.DistinctPaths)
			}
		} else if feat.Misses != first {
			t.Errorf("op %d: flowSim runs grew %d -> %d", i, first, feat.Misses)
		}
	}
	if feat, _ := scrapeFeatures(t, s); feat.Entries != first || feat.Bytes <= 0 || feat.Hits != 3*first {
		t.Errorf("features = %+v, want %d entries and %d hits", feat, first, 3*first)
	}
}

// TestFeatureCacheSurvivesReload: a model swap purges cached estimates but
// keeps per-path features, which no model produced.
func TestFeatureCacheSurvivesReload(t *testing.T) {
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 800)
	req := estimateRequest{Workload: "web", NumPaths: 30}
	mustCode(t, do(t, s, "POST", "/v1/estimate", req, nil), http.StatusOK)
	before, _ := scrapeFeatures(t, s)

	s.SwapPredictor(tinyNet(t, 2))
	var est estimateResponse
	mustCode(t, do(t, s, "POST", "/v1/estimate", req, &est), http.StatusOK)
	if est.Cached {
		t.Fatal("estimate from the old model served after the swap")
	}
	after, _ := scrapeFeatures(t, s)
	if after.Misses != before.Misses || after.Entries != before.Entries {
		t.Errorf("features %+v -> %+v: the swap cost flowSim runs", before, after)
	}
}

// TestWhatIfValidatesBeforeComputing: a bad knob in the last sweep is a 400
// before any point is estimated.
func TestWhatIfValidatesBeforeComputing(t *testing.T) {
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 600)
	featBefore, missesBefore := scrapeFeatures(t, s)
	rec := do(t, s, "POST", "/v1/whatif", whatIfRequest{
		Workload: "web", NumPaths: 20,
		Sweeps: []whatIfSweep{
			{Knobs: map[string]string{"cc": "timely"}},
			{Knobs: map[string]string{"initwnd": "30000"}},
			{Knobs: map[string]string{"cc": "quantum"}},
		},
	}, nil)
	mustCode(t, rec, http.StatusBadRequest)
	featAfter, missesAfter := scrapeFeatures(t, s)
	if missesAfter != missesBefore || featAfter.Misses != featBefore.Misses {
		t.Errorf("estimate misses %d -> %d, flowSim runs %d -> %d: points ran before validation",
			missesBefore, missesAfter, featBefore.Misses, featAfter.Misses)
	}
}

// TestClusterScatterFeatureCache: scatter shards, on the coordinator and on
// the peer, reuse per-path features across configs, so a fleet sweep also
// runs flowSim once per path.
func TestClusterScatterFeatureCache(t *testing.T) {
	servers := clusterServers(t, 2, true)
	a, b := servers[0], servers[1]
	uploadSpecWorkload(t, a, "web", 300)
	waitWorkload(t, b, "web")

	var runs [2]int64
	for i, cc := range []string{"dctcp", "timely", "hpcc"} {
		var est estimateResponse
		mustCode(t, do(t, a, "POST", "/v1/estimate", estimateRequest{
			Workload: "web", NumPaths: 40, Config: map[string]string{"cc": cc},
		}, &est), http.StatusOK)
		if est.Degraded {
			t.Fatalf("op %d degraded", i)
		}
		for j, s := range servers {
			feat, _ := scrapeFeatures(t, s)
			if i == 0 {
				runs[j] = feat.Misses
			} else if feat.Misses != runs[j] {
				t.Errorf("op %d: replica %d flowSim runs grew %d -> %d", i, j, runs[j], feat.Misses)
			}
		}
		if i == 0 && (runs[0] == 0 || runs[1] == 0 || runs[0]+runs[1] != int64(est.DistinctPaths)) {
			t.Errorf("first op: flowSim runs %v across replicas for %d paths", runs, est.DistinctPaths)
		}
	}
}
