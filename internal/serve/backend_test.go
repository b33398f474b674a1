package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"m3/internal/cluster"
	"m3/internal/model"
)

// TestEstimateBackendSelection: the "backend" request field picks the
// inference backend, the response echoes it, and float and int8 estimates
// are separate cache entries under the same workload and seed.
func TestEstimateBackendSelection(t *testing.T) {
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 400)

	var est estimateResponse
	rec := do(t, s, "POST", "/v1/estimate", estimateRequest{
		Workload: "web", NumPaths: 20,
	}, &est)
	mustCode(t, rec, http.StatusOK)
	if est.Backend != model.KindNet {
		t.Fatalf("default backend = %q, want %q", est.Backend, model.KindNet)
	}
	if est.Cached {
		t.Fatal("first float estimate hit the cache")
	}

	// Same workload, paths, and seed on the int8 backend: a fresh compute
	// (per-backend cache keying), echoed as net-int8.
	rec = do(t, s, "POST", "/v1/estimate", estimateRequest{
		Workload: "web", NumPaths: 20, Backend: model.KindNetInt8,
	}, &est)
	mustCode(t, rec, http.StatusOK)
	if est.Backend != model.KindNetInt8 {
		t.Fatalf("backend = %q, want %q", est.Backend, model.KindNetInt8)
	}
	if est.Cached {
		t.Fatal("int8 estimate answered from the float entry: backend missing from the cache key")
	}

	// Repeats hit their own entries.
	for _, backend := range []string{model.KindNet, model.KindNetInt8} {
		rec = do(t, s, "POST", "/v1/estimate", estimateRequest{
			Workload: "web", NumPaths: 20, Backend: backend,
		}, &est)
		mustCode(t, rec, http.StatusOK)
		if !est.Cached || est.Backend != backend {
			t.Fatalf("repeat on %s = %+v, want cached hit on the same backend", backend, est)
		}
	}

	// A model-free method ignores the backend (no echo, no backend keying).
	est = estimateResponse{} // the echo is omitempty; don't inherit the last decode
	rec = do(t, s, "POST", "/v1/estimate", estimateRequest{
		Workload: "web", NumPaths: 20, Method: "flowsim",
	}, &est)
	mustCode(t, rec, http.StatusOK)
	if est.Backend != "" {
		t.Fatalf("flowsim estimate echoed backend %q, want none", est.Backend)
	}
}

// TestUnknownBackend: a backend kind this build does not register is a 400
// with the stable unknown_backend code, on every estimation endpoint.
func TestUnknownBackend(t *testing.T) {
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 200)

	check := func(rec interface{ Result() *http.Response }, body []byte) {
		t.Helper()
		var eb cluster.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("error body: %v (%s)", err, body)
		}
		if eb.Code != cluster.CodeUnknownBackend {
			t.Fatalf("code = %q, want %q (%s)", eb.Code, cluster.CodeUnknownBackend, body)
		}
		if cluster.Retryable(eb.Code) {
			t.Fatal("unknown_backend must not be retryable")
		}
	}

	rec := do(t, s, "POST", "/v1/estimate", estimateRequest{
		Workload: "web", Backend: "net-int4",
	}, nil)
	mustCode(t, rec, http.StatusBadRequest)
	check(rec, rec.Body.Bytes())

	rec = do(t, s, "GET", "/v1/quantiles?workload=web&backend=net-int4", nil, nil)
	mustCode(t, rec, http.StatusBadRequest)
	check(rec, rec.Body.Bytes())

	rec = do(t, s, "POST", "/v1/whatif", whatIfRequest{
		Workload: "web", Backend: "net-int4",
		Sweeps: []whatIfSweep{{Knobs: map[string]string{"cc": "timely"}}},
	}, nil)
	mustCode(t, rec, http.StatusBadRequest)
	check(rec, rec.Body.Bytes())
}

// TestQuantilesBackendByteStable: the int8 backend is integer arithmetic in
// a fixed order, so two fresh servers (no shared cache) must answer the same
// quantiles request with byte-identical bodies.
func TestQuantilesBackendByteStable(t *testing.T) {
	const target = "/v1/quantiles?workload=web&q=0.5,0.9,0.99&paths=30&backend=net-int8"
	bodies := make([]string, 2)
	for i := range bodies {
		s := testServer(t)
		uploadSpecWorkload(t, s, "web", 400)
		rec := do(t, s, "GET", target, nil, nil)
		mustCode(t, rec, http.StatusOK)
		bodies[i] = rec.Body.String()
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("int8 quantiles not byte-stable across runs:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// TestReloadQuantizedCheckpoint: reloading an int8-tagged checkpoint swaps
// the serving default to the quantized backend; a corrupt quantized artifact
// takes the same 422 rejection path as a corrupt float one and the serving
// set is untouched.
func TestReloadQuantizedCheckpoint(t *testing.T) {
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 200)

	q, err := model.Quantize(tinyNet(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "int8.ckpt")
	if err := model.SavePredictorFile(q, path); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Backend string `json:"backend"`
	}
	rec := do(t, s, "POST", "/v1/reload", reloadRequest{Checkpoint: path}, &out)
	mustCode(t, rec, http.StatusOK)
	if out.Backend != model.KindNetInt8 {
		t.Fatalf("reload default backend = %q, want %q", out.Backend, model.KindNetInt8)
	}
	if got := s.modelFP.Load(); got != q.Fingerprint() {
		t.Fatalf("serving fingerprint %x, want the quantized %x", got, q.Fingerprint())
	}

	// Requests naming no backend now run int8; the float sibling is still
	// servable by name (rebuilt from the checkpoint's float weights).
	var est estimateResponse
	rec = do(t, s, "POST", "/v1/estimate", estimateRequest{Workload: "web", NumPaths: 20}, &est)
	mustCode(t, rec, http.StatusOK)
	if est.Backend != model.KindNetInt8 {
		t.Fatalf("post-reload default backend = %q", est.Backend)
	}
	rec = do(t, s, "POST", "/v1/estimate", estimateRequest{
		Workload: "web", NumPaths: 20, Backend: model.KindNet,
	}, &est)
	mustCode(t, rec, http.StatusOK)
	if est.Backend != model.KindNet {
		t.Fatalf("float-by-name backend = %q", est.Backend)
	}

	// Corrupt quantized checkpoint: 422, serving set unchanged.
	fpBefore := s.modelFP.Load()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec = do(t, s, "POST", "/v1/reload", reloadRequest{Checkpoint: bad}, nil)
	mustCode(t, rec, http.StatusUnprocessableEntity)
	if s.modelFP.Load() != fpBefore {
		t.Fatal("corrupt quantized reload replaced the serving model")
	}
}

// TestMetricsBackendSplit: /metrics splits ML estimates by backend kind and
// reports the loaded backend set. It also pins the latency histogram's bucket
// labels, which dashboards key on: one observation per bucket on a synthetic
// route must come back under exactly these names.
func TestMetricsBackendSplit(t *testing.T) {
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 200)

	pin := &s.metrics.route("pin").latency
	for _, ms := range latencyBucketsMS {
		pin.observe(time.Duration(ms * float64(time.Millisecond)))
	}
	pin.observe(time.Hour)
	wantLabels := []string{"le_1", "le_2", "le_5", "le_10", "le_25", "le_50", "le_100", "le_250",
		"le_500", "le_1000", "le_2500", "le_5000", "le_10000", "le_+inf"}

	for _, backend := range []string{model.KindNet, model.KindNetInt8} {
		rec := do(t, s, "POST", "/v1/estimate", estimateRequest{
			Workload: "web", NumPaths: 16, Backend: backend,
		}, nil)
		mustCode(t, rec, http.StatusOK)
	}

	var snap struct {
		Requests map[string]struct {
			Latency struct {
				Buckets map[string]int64 `json:"buckets_ms"`
			} `json:"latency"`
		} `json:"requests"`
		Backends map[string]struct {
			Estimates int64   `json:"estimates"`
			PredictMS float64 `json:"predict_ms"`
		} `json:"backends"`
		Model struct {
			Backend        string   `json:"backend"`
			BackendsLoaded []string `json:"backends_loaded"`
		} `json:"model"`
	}
	rec := do(t, s, "GET", "/metrics", nil, &snap)
	mustCode(t, rec, http.StatusOK)
	got := snap.Requests["pin"].Latency.Buckets
	if len(got) != len(wantLabels) {
		t.Errorf("histogram labels = %v, want %v", got, wantLabels)
	}
	for _, l := range wantLabels {
		if got[l] != 1 {
			t.Errorf("histogram bucket %q = %d, want 1", l, got[l])
		}
	}
	for _, kind := range []string{model.KindNet, model.KindNetInt8} {
		bs, ok := snap.Backends[kind]
		if !ok || bs.Estimates != 1 {
			t.Fatalf("backend %q stats = %+v (present=%v), want 1 estimate", kind, bs, ok)
		}
	}
	if snap.Model.Backend != model.KindNet {
		t.Fatalf("default backend = %q", snap.Model.Backend)
	}
	if len(snap.Model.BackendsLoaded) < 2 {
		t.Fatalf("backends_loaded = %v, want both kinds", snap.Model.BackendsLoaded)
	}
}
