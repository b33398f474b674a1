// Command bench is the repository's performance ledger: four workloads over
// the m3 estimator, service and fleet, each measured end to end (untraced)
// and layer by layer (traced), with every answer checked against the
// library. See README.md for the glossary and BENCHMARK.json for the
// contract the driver runs it under.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef is one row of BENCHMARK.json. bound is the share of the parent's
// median by which an end-to-end metric may worsen (per-layer metrics have
// none).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// The bounds follow the run-to-run spreads measured when the benchmark was
// defined (README.md, "Noise"): the compute-heavy workloads moved by up to
// 18% between runs on the 2-core sandbox, so the timings take the contract's
// widest bound; p99_err_pct is deterministic and gets one percentage point.
var endToEnd = []metricDef{
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"p99_err_pct", "%", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{"workload.validate_ms", "ms", "lower", 0},
	{"pathsim.decompose_ms", "ms", "lower", 0},
	{"pathsim.paths_total", "count", "lower", 0},
	{"sampling.sample_ms", "ms", "lower", 0},
	{"sampling.distinct_paths", "count", "lower", 0},
	{"pathsim.scenario_ms", "ms", "lower", 0},
	{"flowsim.run_ms", "ms", "lower", 0},
	{"flowsim.flows_simulated", "count", "lower", 0},
	{"feature.build_ms", "ms", "lower", 0},
	{"model.predict_ms", "ms", "lower", 0},
	{"model.us_per_sample", "us", "lower", 0},
	{"model.batches", "count", "lower", 0},
	{"agg.aggregate_ms", "ms", "lower", 0},
	{"serve.encode_ms", "ms", "lower", 0},
	{"core.estimate_ms", "ms", "lower", 0},
	{"core.estimate_1worker_ms", "ms", "lower", 0},
	{"core.reenacted_ms", "ms", "lower", 0},
	{"core.orchestration_ms", "ms", "lower", 0},
	{"core.speedup_vs_1worker", "x", "higher", 0},
	{"core.cache_hit_frac", "frac", "higher", 0},
	{"core.cache_misses", "count", "lower", 0},
	{"core.cache_entries", "count", "lower", 0},
	{"serve.handler_ms_p50", "ms", "lower", 0},
	{"serve.overhead_ms_p50", "ms", "lower", 0},
	{"serve.transport_ms_p50", "ms", "lower", 0},
	{"serve.reported_elapsed_ms", "ms", "lower", 0},
	{"serve.reported_decompose_ms", "ms", "lower", 0},
	{"serve.reported_sample_ms", "ms", "lower", 0},
	{"serve.reported_pathsim_ms", "ms", "lower", 0},
	{"serve.reported_predict_ms", "ms", "lower", 0},
	{"serve.reported_aggregate_ms", "ms", "lower", 0},
	{"cluster.rpc_ms_p50", "ms", "lower", 0},
	{"cluster.rpc_per_op", "count", "lower", 0},
	{"cluster.rpc_bytes_per_op", "bytes", "lower", 0},
	{"cluster.scatter_overhead_ms_p50", "ms", "lower", 0},
	{"cluster.fallback_shards", "count", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	{"process.alloc_mb_per_op", "MB", "lower", 0},
	{"process.gc_pause_ms_per_op", "ms", "lower", 0},
	{"process.heap_sys_mb", "MB", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// exactCounts are the per-layer counts that must repeat exactly between two
// runs of one binary on the same ops.
var exactCounts = []string{
	"pathsim.paths_total", "sampling.distinct_paths", "flowsim.flows_simulated",
	"model.batches", "core.cache_misses", "cluster.rpc_per_op",
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// stamp identifies the machine, the build and the inputs of a report.
type stamp struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Model      string  `json:"model_fingerprint"`
	TrainS     float64 `json:"train_s"`
	Clients    int     `json:"clients"`
	Workers    int     `json:"workers"`
	Transport  string  `json:"transport"`
}

// metricValue is one metric as the contract prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is one run in the -json document; its correct, attempted, failed
// and metrics fields are exactly the contract's result line.
type runReport struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]any         `json:"info"`
}

func reportOf(r *result) runReport {
	rr := runReport{
		Workload: r.Workload, Traced: r.Traced, Correct: r.Failed == 0,
		Attempted: r.Attempted, Failed: r.Failed, Info: r.Info,
		Metrics: make(map[string]metricValue),
	}
	// Every metric of the mode is printed on every workload; a layer the
	// workload does not exercise reads 0.
	for _, d := range defsFor(r.Traced) {
		rr.Metrics[d.name] = metricValue{Value: r.Metrics[d.name], Unit: d.unit}
	}
	return rr
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "seed of every generated input (flows, config order, key shuffle)")
	only := fs.String("workload", "", "run only this workload (default: all four)")
	seconds := fs.Float64("seconds", 10, "length of one measured run")
	trace := fs.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default: both, the traced run at a quarter of -seconds")
	traceOut := fs.String("trace-out", "", "write the traced runs' spans to this file as JSON")
	asJSON := fs.Bool("json", false, "print one JSON document (stamp and every run) instead of the tables")
	smoke := fs.Bool("smoke", false, "tiny sizes and an untrained-scale model: exercises the harness, measures nothing")
	selfcheck := fs.Bool("selfcheck", false, "run the set twice (A/A) and fail if an end-to-end metric differs by more than its bound or a count does not repeat")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: no workload %q\n", *only)
		return 2
	}

	b := &bench{sz: fullSizes, seed: *seed, clients: min(2, runtime.NumCPU())}
	if *smoke {
		b.sz = smokeSizes
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(stderr, "bench: warning: GOMAXPROCS %d > nproc %d; workers will time-share cores\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	t0 := time.Now()
	var err error
	if b.ckpt, b.fp, err = trainModel(ctx, b.sz); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	st := stamp{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Commit: commit(), Seed: *seed, Seconds: *seconds, Smoke: *smoke,
		Model: fmt.Sprintf("%x", b.fp), TrainS: time.Since(t0).Seconds(),
		Clients: b.clients, Workers: runtime.GOMAXPROCS(0),
		Transport: "in-process servers on loopback TCP, load generated from this process: not a real link",
	}

	// modes lists the (traced, share of -seconds) runs of each workload.
	type mode struct {
		traced bool
		share  float64
	}
	modes := []mode{{false, 1}, {true, 0.25}}
	if *trace >= 0 {
		modes = []mode{{*trace == 1, 1}}
	}
	// pass runs every selected (workload, mode) once; pinned, when not nil,
	// fixes each run's op counts to those of an earlier pass.
	pass := func(pinned map[string][][]int) ([]*result, error) {
		var out []*result
		for _, w := range selected {
			for _, m := range modes {
				b.bg = budget{seconds: *seconds * m.share}
				b.pinned = pinned[runKey(w.name, m.traced)]
				fmt.Fprintf(stderr, "bench: %s traced=%v ...\n", w.name, m.traced)
				r, err := w.run(ctx, b, m.traced)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", w.name, err)
				}
				out = append(out, r)
				runtime.GC()
			}
		}
		return out, nil
	}

	results, err := pass(nil)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	if *selfcheck {
		pinned := make(map[string][][]int)
		for _, r := range results {
			pinned[runKey(r.Workload, r.Traced)] = r.phaseOps
		}
		again, err := pass(pinned)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !printSelfcheck(stdout, results, again) {
			code = 1
		}
		results = append(results, again...)
	}

	var reports []runReport
	var spans []span
	for _, r := range results {
		reports = append(reports, reportOf(r))
		if r.Failed > 0 {
			code = 1
		}
		if r.Traced {
			// Renumber so IDs stay unique (and equal to the index) across runs.
			base := len(spans)
			for _, s := range r.spans {
				s.ID += base
				if s.Parent >= 0 {
					s.Parent += base
				}
				spans = append(spans, s)
			}
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	switch {
	case *asJSON:
		buf, err := json.Marshal(map[string]any{"stamp": st, "runs": reports})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", buf)
	default:
		printStamp(stdout, st)
		for _, rr := range reports {
			printRun(stdout, rr)
		}
		if len(reports) == 1 {
			// The driver's contract: the last line is the single run's result.
			rr := reports[0]
			buf, err := json.Marshal(map[string]any{
				"correct": rr.Correct, "attempted": rr.Attempted, "failed": rr.Failed, "metrics": rr.Metrics,
			})
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", buf)
		}
	}
	return code
}

func runKey(workload string, traced bool) string { return fmt.Sprintf("%s/%v", workload, traced) }

func printStamp(w io.Writer, st stamp) {
	fmt.Fprintf(w, "m3 perf ledger  seed=%d seconds=%g smoke=%v\n", st.Seed, st.Seconds, st.Smoke)
	fmt.Fprintf(w, "  machine   nproc=%d GOMAXPROCS=%d %s  cpu=%q\n", st.Nproc, st.GOMAXPROCS, st.GoVersion, st.CPU)
	fmt.Fprintf(w, "  build     commit=%s\n", st.Commit)
	fmt.Fprintf(w, "  model     fingerprint=%s trained in %.2f s\n", st.Model, st.TrainS)
	fmt.Fprintf(w, "  load      closed loop, clients=%d workers=%d\n", st.Clients, st.Workers)
	fmt.Fprintf(w, "  transport %s\n", st.Transport)
}

func printRun(w io.Writer, rr runReport) {
	kind := "end-to-end (untraced)"
	if rr.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n%s  %s  ops attempted=%d succeeded=%d failed=%d\n",
		rr.Workload, kind, rr.Attempted, rr.Attempted-rr.Failed, rr.Failed)
	for _, d := range defsFor(rr.Traced) {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, rr.Metrics[d.name].Value, d.unit)
	}
	keys := make([]string, 0, len(rr.Info))
	for k := range rr.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (%s: %v)\n", k, rr.Info[k])
	}
}

// printSelfcheck prints the A/A comparison of two passes over the same runs
// and reports whether every end-to-end metric agreed within its bound and
// every exact count repeated.
func printSelfcheck(w io.Writer, a, b []*result) bool {
	ok := true
	fmt.Fprintf(w, "A/A self-check: two passes of one binary, the second pinned to the first's op counts\n")
	for i := range a {
		ra, rb := a[i], b[i]
		if !ra.Traced {
			fmt.Fprintf(w, "\n%s  end-to-end\n", ra.Workload)
			for _, d := range endToEnd {
				va, vb := ra.Metrics[d.name], rb.Metrics[d.name]
				diff := relDiff(va, vb)
				verdict := "ok"
				if diff > d.bound {
					verdict, ok = "EXCEEDS BOUND", false
				}
				fmt.Fprintf(w, "  %-22s %12.4f %12.4f %-6s diff %6.2f%%  bound %4.0f%%  %s\n",
					d.name, va, vb, d.unit, 100*diff, 100*d.bound, verdict)
			}
			continue
		}
		fmt.Fprintf(w, "\n%s  counts that must repeat\n", ra.Workload)
		for _, name := range exactCounts {
			va, vb := ra.Metrics[name], rb.Metrics[name]
			verdict := "ok"
			if va != vb {
				verdict, ok = "DIFFERS", false
			}
			fmt.Fprintf(w, "  %-26s %14.4f %14.4f  %s\n", name, va, vb, verdict)
		}
	}
	fmt.Fprintln(w)
	return ok
}
