package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"m3/internal/packetsim"
)

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {8, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedianOfNothingIsZero(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0 (JSON cannot carry NaN)", got)
	}
	if got := median([]float64{5, 1, 4, 2}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 50},  // overlaps the next child on [30,50)
		{ID: 2, Parent: 0, StartNs: 30, EndNs: 70},  //
		{ID: 3, Parent: 0, StartNs: 90, EndNs: 130}, // runs past the parent: clipped to [90,100)
		{ID: 4, Parent: 1, StartNs: 20, EndNs: 30},  // grandchild: only its own parent pays
	}
	selfTimes(spans)
	// Parent: 100 - |[10,70) u [90,100)| = 100 - 70; summing child durations
	// instead would give 100 - 120 < 0.
	for id, want := range []int64{30, 30, 40, 40, 10} {
		if spans[id].SelfNs != want {
			t.Errorf("span %d self = %d, want %d", id, spans[id].SelfNs, want)
		}
	}
}

func TestSeededInputsReproducible(t *testing.T) {
	if !reflect.DeepEqual(sweepOrder(3), sweepOrder(3)) || !reflect.DeepEqual(hotOrder(3, 32, 500), hotOrder(3, 32, 500)) {
		t.Fatal("same seed gave different sequences")
	}
	if reflect.DeepEqual(sweepOrder(3)[:64], sweepOrder(4)[:64]) || reflect.DeepEqual(hotOrder(3, 32, 500), hotOrder(4, 32, 500)) {
		t.Fatal("different seeds gave the same sequence")
	}
	// Every block of the hot order visits every key once.
	counts := make([]int, 32)
	for _, k := range hotOrder(9, 32, 320) {
		counts[k]++
	}
	for k, c := range counts {
		if c != 10 {
			t.Fatalf("key %d drawn %d times in ten blocks, want 10", k, c)
		}
	}
	// The sweep grid: every config distinct, valid, and never the default
	// (which the warm-up uses).
	seen := make(map[string]bool, sweepSpace)
	def := packetsim.DefaultConfig()
	for _, i := range sweepOrder(1) {
		rq := request{knobs: sweepConfig(i), seed: 1, numPaths: 200}
		if seen[rq.key()] {
			t.Fatalf("config %d repeats key %s", i, rq.key())
		}
		seen[rq.key()] = true
		cfg, err := rq.config()
		if err != nil {
			t.Fatalf("config %d invalid: %v", i, err)
		}
		if cfg == def {
			t.Fatalf("config %d equals the default config", i)
		}
	}
	if len(seen) != sweepSpace {
		t.Fatalf("%d distinct configs, want %d", len(seen), sweepSpace)
	}
}

func TestAnswerEqualIsBitwise(t *testing.T) {
	a := answer{"combined": 1.5, "le_1kb": 2}
	if !a.equal(answer{"combined": 1.5, "le_1kb": 2}) {
		t.Error("identical answers differ")
	}
	if a.equal(answer{"combined": 1.5000000000000002, "le_1kb": 2}) {
		t.Error("one ulp apart must not be equal")
	}
	if a.equal(answer{"combined": 1.5}) || (answer{}).equal(answer{}) {
		t.Error("missing keys and empty answers must not be equal")
	}
}

// TestSmokeAllWorkloads runs the four workloads in both modes at smoke sizes
// and checks that nothing fails, that every metric BENCHMARK.json names is
// set by some workload (and none is set that it does not name), and that the
// discrimination the workloads were chosen for is visible.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	b := &bench{sz: smokeSizes, seed: 1, clients: 2}
	var err error
	if b.ckpt, b.fp, err = trainModel(ctx, b.sz); err != nil {
		t.Fatal(err)
	}
	set := map[bool]map[string]bool{false: {}, true: {}}
	byRun := make(map[string]*result)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			b.bg = budget{seconds: 0.25}
			r, err := w.run(ctx, b, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s traced=%v: attempted %d, failed %d (%v)", w.name, traced, r.Attempted, r.Failed, r.Info["first_failure"])
			}
			for k := range r.Metrics {
				set[traced][k] = true
			}
			byRun[runKey(w.name, traced)] = r
			if !traced {
				for _, d := range endToEnd {
					if r.Metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, r.Metrics[d.name])
					}
				}
			}
		}
	}
	for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		named := make(map[string]bool)
		for _, d := range defs {
			named[d.name] = true
			if !set[traced][d.name] {
				t.Errorf("metric %s (traced=%v) is named but no workload sets it", d.name, traced)
			}
		}
		for k := range set[traced] {
			if !named[k] {
				t.Errorf("metric %s (traced=%v) is set but not named", k, traced)
			}
		}
	}
	layer := func(w, name string) float64 { return byRun[runKey(w, true)].Metrics[name] }
	if layer("cold_sparse_6144h", "pathsim.decompose_ms") <= 0 || layer("sweep_dense_256h", "serve.reported_decompose_ms") > 0.1 {
		t.Error("decompose must be on the blocking path of cold only")
	}
	if got := layer("hot_256h", "core.cache_hit_frac"); got < 0.99 {
		t.Errorf("hot cache_hit_frac = %v, want >= 0.99", got)
	}
	if got := layer("sweep_dense_256h", "core.cache_hit_frac"); got != 0 {
		t.Errorf("sweep cache_hit_frac = %v, want 0", got)
	}
	for _, w := range workloads {
		if got := layer(w.name, "cluster.rpc_per_op"); (got > 0) != (w.name == "fleet_scatter_2r") {
			t.Errorf("%s cluster.rpc_per_op = %v", w.name, got)
		}
	}
	// The ledger closes: layers + orchestration = the one-worker wall.
	for _, w := range []string{"cold_sparse_6144h", "sweep_dense_256h"} {
		total := layer(w, "core.orchestration_ms")
		for _, k := range pipelineLayers {
			if w != "cold_sparse_6144h" && (k == "workload.validate_ms" || k == "pathsim.decompose_ms") {
				continue // paid at registration on the serve workloads
			}
			total += layer(w, k)
		}
		if wall := layer(w, "core.estimate_1worker_ms"); relDiff(total, wall) > 1e-9 {
			t.Errorf("%s: layers + orchestration = %v, one-worker wall = %v", w, total, wall)
		}
	}
}

// TestContractLine drives the command the way the driver does and checks the
// shape of the last line of standard output.
func TestContractLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(context.Background(), []string{"-smoke", "--workload", "hot_256h", "--seed", "5", "--seconds", "0.2", "--trace", "0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("result has keys %v, want exactly correct, attempted, failed, metrics", got)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := metrics[d.name]; m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("%s = %+v", d.name, m)
		}
	}
	if string(got["correct"]) != "true" || string(got["failed"]) != "0" {
		t.Errorf("correct=%s failed=%s", got["correct"], got["failed"])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in main.go in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []row
		EndToEnd   []row `json:"end_to_end"`
		PerLayer   []row `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v vs %s / %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, rows []row, defs []metricDef, bounded bool) {
		if len(rows) != len(defs) {
			t.Fatalf("%s: %d rows, want %d", kind, len(rows), len(defs))
		}
		for i, d := range defs {
			r := rows[i]
			if r.Name != d.name || r.Unit != d.unit || r.Better != d.better {
				t.Errorf("%s[%d]: %+v vs %+v", kind, i, r, d)
			}
			if bounded != (r.Bound != nil) || (bounded && (*r.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v vs %v", kind, i, d.name, r.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
