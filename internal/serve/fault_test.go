package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"m3/internal/faultinject"
	"m3/internal/model"
)

// TestReloadRejectsCorruptCheckpoint flips a bit in a checkpoint on disk and
// asks the server to reload it: the reload must be rejected as unprocessable
// while the old model keeps serving (fingerprint unchanged, estimates work).
func TestReloadRejectsCorruptCheckpoint(t *testing.T) {
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 600)

	fpBefore := s.modelFP.Load()
	dir := t.TempDir()
	path := filepath.Join(dir, "m3.ckpt")
	if err := tinyNet(t, 9).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := do(t, s, "POST", "/v1/reload", reloadRequest{Checkpoint: path}, nil)
	mustCode(t, rec, http.StatusUnprocessableEntity)
	if got := s.modelFP.Load(); got != fpBefore {
		t.Fatalf("rejected reload still swapped the model: %016x -> %016x", fpBefore, got)
	}

	// The old model still serves.
	var est estimateResponse
	rec = do(t, s, "POST", "/v1/estimate", estimateRequest{Workload: "web", NumPaths: 20}, &est)
	mustCode(t, rec, http.StatusOK)
	if est.Degraded {
		t.Error("healthy model reported degraded after rejected reload")
	}

	// An intact checkpoint at the same path then succeeds.
	if err := tinyNet(t, 9).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	rec = do(t, s, "POST", "/v1/reload", reloadRequest{Checkpoint: path}, nil)
	mustCode(t, rec, http.StatusOK)
	if s.modelFP.Load() == fpBefore {
		t.Error("valid reload did not swap the model")
	}
}

// TestReloadRejectsShapeMismatch writes a checkpoint whose gob payload
// carries a truncated weight vector under a valid CRC: the shape gate (not
// the CRC) must refuse it.
func TestReloadRejectsShapeMismatch(t *testing.T) {
	s := testServer(t)
	fpBefore := s.modelFP.Load()

	// Hand-roll a v3 checkpoint whose weight map is empty, with the header's
	// CRC and length matching the payload: the CRC can't catch it, only the
	// per-parameter shape gate can.
	net := tinyNet(t, 3)
	type ckpt struct {
		Cfg     model.Config
		Weights map[string][]float64
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&ckpt{
		Cfg: net.Cfg, Weights: map[string][]float64{},
	}); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte("m3cp"), 3, 0, 0, 0, 0) // magic | version 3 | kind net
	raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(payload.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(payload.Len()))
	raw = append(raw, payload.Bytes()...)
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, "POST", "/v1/reload", reloadRequest{Checkpoint: path}, nil)
	if rec.Code != http.StatusBadRequest && rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("shape-mismatched checkpoint: status %d, want 4xx; body %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "missing parameter") {
		t.Errorf("rejected before the shape gate: %s", rec.Body.String())
	}
	if s.modelFP.Load() != fpBefore {
		t.Error("shape-mismatched reload swapped the model")
	}
}

// TestReloadUnderConcurrentEstimates hammers estimates while checkpoints are
// swapped in a loop; run under -race this proves reload and the estimate path
// share no unsynchronized state. Estimates must only ever see a complete
// model (every response 200 or 409/429, never 500).
func TestReloadUnderConcurrentEstimates(t *testing.T) {
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 600)

	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt")}
	for i, p := range paths {
		if err := tinyNet(t, uint64(20+i)).SaveFile(p); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := uint64(g)
			for {
				select {
				case <-stop:
					return
				default:
				}
				seed++
				rec := do(t, s, "POST", "/v1/estimate", estimateRequest{
					Workload: "web", NumPaths: 10, Seed: seed,
				}, nil)
				if rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
					t.Errorf("estimate during reload: status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		rec := do(t, s, "POST", "/v1/reload", reloadRequest{Checkpoint: paths[i%2]}, nil)
		if rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
			t.Errorf("reload %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	close(stop)
	wg.Wait()
}

// TestAdmissionControlSheds serves with one estimation slot and parks a
// request in it: the next estimate must be shed with 429 + Retry-After, and
// a slot release must let traffic through again.
func TestAdmissionControlSheds(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	s, err := New(Options{Net: tinyNet(t, 1), Workers: 2, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	uploadSpecWorkload(t, s, "web", 600)

	entered := make(chan struct{})
	unblock := make(chan struct{})
	var once sync.Once
	faultinject.Set("serve.estimate", func(any) {
		once.Do(func() { close(entered) })
		<-unblock
	})

	go func() {
		do(t, s, "POST", "/v1/estimate", estimateRequest{Workload: "web", NumPaths: 10}, nil)
	}()
	<-entered

	rec := do(t, s, "POST", "/v1/estimate", estimateRequest{Workload: "web", NumPaths: 10}, nil)
	mustCode(t, rec, http.StatusTooManyRequests)
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(unblock)
	faultinject.Clear()

	// Wait for the slot to free, then confirm service resumed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec = do(t, s, "POST", "/v1/estimate", estimateRequest{Workload: "web", NumPaths: 10}, nil)
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service did not recover after shed: status %d", rec.Code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDegradedEstimateResponse poisons predictions with NaN: the response
// must carry finite p99 values, degraded=true, and the degraded counters
// must show up in /metrics.
func TestDegradedEstimateResponse(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 600)

	faultinject.Set("core.predict", func(detail any) {
		preds := detail.([][]float64)
		for _, p := range preds {
			for i := range p {
				p[i] = math.NaN()
			}
		}
	})
	var est estimateResponse
	rec := do(t, s, "POST", "/v1/estimate", estimateRequest{Workload: "web", NumPaths: 20}, &est)
	mustCode(t, rec, http.StatusOK)
	if !est.Degraded || est.DegradedPaths != est.DistinctPaths {
		t.Errorf("degraded=%v degraded_paths=%d/%d", est.Degraded, est.DegradedPaths, est.DistinctPaths)
	}
	if v, ok := est.P99["combined"]; !ok || math.IsNaN(v) || v < 1 {
		t.Errorf("combined p99 = %v (present=%v)", v, ok)
	}

	var metrics struct {
		Degraded struct {
			Estimates int64 `json:"estimates"`
			Paths     int64 `json:"paths"`
		} `json:"degraded"`
	}
	rec = do(t, s, "GET", "/metrics", nil, &metrics)
	mustCode(t, rec, http.StatusOK)
	if metrics.Degraded.Estimates != 1 || metrics.Degraded.Paths != int64(est.DegradedPaths) {
		t.Errorf("metrics degraded = %+v, want 1 estimate / %d paths", metrics.Degraded, est.DegradedPaths)
	}
}

// TestHandlerPanicContained panics inside the estimation path via the fault
// hook: the request answers 500, the panic counter ticks, and the server
// keeps serving.
func TestHandlerPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 600)

	faultinject.Set("serve.estimate", func(any) { panic("injected handler panic") })
	req := httptest.NewRequest("POST", "/v1/estimate",
		bytes.NewReader([]byte(`{"workload":"web","num_paths":10}`)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req) // must not propagate the panic
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicked request: status %d, want 500", rec.Code)
	}
	faultinject.Clear()

	var metrics struct {
		Panics int64 `json:"panics"`
	}
	rec2 := do(t, s, "GET", "/metrics", nil, &metrics)
	mustCode(t, rec2, http.StatusOK)
	if metrics.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", metrics.Panics)
	}

	var est estimateResponse
	rec2 = do(t, s, "POST", "/v1/estimate", estimateRequest{Workload: "web", NumPaths: 10}, &est)
	mustCode(t, rec2, http.StatusOK)
	if s.Inflight() != 0 {
		t.Errorf("inflight gauge = %d after requests drained", s.Inflight())
	}
}

// TestRequestValidationBounds exercises the new request-shape gates.
func TestRequestValidationBounds(t *testing.T) {
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 600)

	rec := do(t, s, "POST", "/v1/estimate", estimateRequest{Workload: "web", NumPaths: maxNumPaths + 1}, nil)
	mustCode(t, rec, http.StatusBadRequest)

	rec = do(t, s, "POST", "/v1/workloads", workloadRequest{
		Name: "bad name!", Spec: &specJSON{NumFlows: 10},
	}, nil)
	mustCode(t, rec, http.StatusBadRequest)

	rec = do(t, s, "POST", "/v1/workloads", workloadRequest{
		Name: "overload", Spec: &specJSON{NumFlows: 10, MaxLoad: 7},
	}, nil)
	mustCode(t, rec, http.StatusBadRequest)

	sweeps := make([]whatIfSweep, maxSweeps+1)
	for i := range sweeps {
		sweeps[i] = whatIfSweep{Knobs: map[string]string{"cc": "dctcp"}}
	}
	rec = do(t, s, "POST", "/v1/whatif", whatIfRequest{Workload: "web", Sweeps: sweeps}, nil)
	mustCode(t, rec, http.StatusBadRequest)
}
