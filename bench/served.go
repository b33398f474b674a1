package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"m3/internal/model"
	"m3/internal/serve"
)

// servedName is the registry name of the dense workload on every replica.
const servedName = "dense"

// opHeader carries the client's op ID to the handler wrapper, so handler
// spans join the client span of the same operation.
const opHeader = "X-Bench-Op"

// basePort is where replicas try to listen first. Fixed ports make the
// fleet's rendezvous hash — which keys on member addresses — and so the
// RPC counts per op repeat run to run; a taken port falls through to the
// next one.
const basePort = 47311

// replica is one in-process m3 server behind a real loopback listener.
type replica struct {
	srv  *serve.Server
	http *http.Server
	addr string
	done chan struct{} // closed when http.Serve has returned
}

// served is a running deployment: one standalone server or a scatter fleet.
type served struct {
	reps []*replica
	hc   *http.Client
	tr   *tracer
}

// traced wraps a server so the benchmark times the handler from outside:
// one span per request with the op ID, the route and the body bytes. With
// the tracer off it is a pass-through.
func (f *served) traced(rep int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !f.tr.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		op := -1
		if v := r.Header.Get(opHeader); v != "" {
			op, _ = strconv.Atoi(v) // the benchmark's own client wrote it
		}
		cw := &countingWriter{ResponseWriter: w}
		start := f.tr.now()
		next.ServeHTTP(cw, r)
		f.tr.add(span{
			Parent: -1, Op: op, Name: r.URL.Path, StartNs: start, EndNs: f.tr.now(),
			Replica: rep, Bytes: max(r.ContentLength, 0) + cw.n,
		})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// listen binds n loopback listeners on consecutive free ports from basePort.
func listen(n int) ([]net.Listener, error) {
	var ls []net.Listener
	for port := basePort; len(ls) < n && port < basePort+200; port++ {
		l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
		if err != nil {
			continue
		}
		ls = append(ls, l)
	}
	if len(ls) < n {
		for _, l := range ls {
			l.Close()
		}
		return nil, fmt.Errorf("no %d free loopback ports in [%d,%d)", n, basePort, basePort+200)
	}
	return ls, nil
}

// startServed starts n replicas (n > 1: a scatter fleet) sharing one loaded
// model, each with its own pool of workers workers.
func startServed(net *model.Net, n, workers, cacheSize int, tr *tracer) (*served, error) {
	ls, err := listen(n)
	if err != nil {
		return nil, err
	}
	f := &served{hc: &http.Client{Timeout: 2 * time.Minute}, tr: tr}
	for i, l := range ls {
		opts := serve.Options{Net: net, Workers: workers, CacheSize: cacheSize}
		if n > 1 {
			opts.Advertise = l.Addr().String()
			opts.Scatter = true
			for j, other := range ls {
				if j != i {
					opts.Peers = append(opts.Peers, other.Addr().String())
				}
			}
		}
		srv, err := serve.New(opts)
		if err != nil {
			for _, rest := range ls[i:] {
				rest.Close()
			}
			f.close()
			return nil, err
		}
		rep := &replica{
			srv: srv, addr: l.Addr().String(), done: make(chan struct{}),
			http: &http.Server{Handler: f.traced(i, srv)},
		}
		f.reps = append(f.reps, rep)
		go func() {
			defer close(rep.done)
			_ = rep.http.Serve(l) // always returns ErrServerClosed after Shutdown
		}()
	}
	return f, nil
}

// close drains and stops every replica and waits for its goroutines.
func (f *served) close() {
	for _, rep := range f.reps {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := rep.http.Shutdown(ctx); err != nil {
			rep.http.Close()
		}
		cancel()
		<-rep.done
	}
	for _, rep := range f.reps {
		rep.srv.Close()
	}
	f.hc.CloseIdleConnections()
}

func (f *served) url(rep int, path string) string { return "http://" + f.reps[rep].addr + path }

// register creates the dense workload on replica 0 and waits until every
// replica serves it (fleet replication is asynchronous).
func (f *served) register(flows int) error {
	body, err := json.Marshal(map[string]any{
		"name": servedName, "topo": "small", "oversub": "2-to-1",
		"spec": map[string]any{
			"num_flows": flows, "size_dist": "WebServer", "matrix": "B",
			"max_load": 0.5, "burstiness": denseBurstiness, "seed": denseSeed,
		},
	})
	if err != nil {
		return err
	}
	resp, err := f.hc.Post(f.url(0, "/v1/workloads"), "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("register workload: %w", err)
	}
	msg, _ := io.ReadAll(resp.Body) // only quoted in the error below
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("register workload: status %d: %s", resp.StatusCode, msg)
	}
	deadline := time.Now().Add(30 * time.Second)
	for rep := range f.reps {
		for {
			resp, err := f.hc.Get(f.url(rep, "/v1/workloads/"+servedName))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("workload never replicated to replica %d", rep)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// reply is the part of a /v1/estimate response the benchmark reads.
type reply struct {
	Cached    bool               `json:"cached"`
	Degraded  bool               `json:"degraded"`
	ElapsedMS float64            `json:"elapsed_ms"`
	P99       answer             `json:"p99"`
	StagesMS  map[string]float64 `json:"stages_ms"`
}

// estimate posts one request to replica rep and decodes the reply. A
// non-200 status is an error.
func (f *served) estimate(rep, op int, rq request) (*reply, error) {
	body := map[string]any{"workload": servedName, "num_paths": rq.numPaths, "seed": rq.seed}
	if len(rq.knobs) > 0 {
		body["config"] = rq.knobs
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, f.url(rep, "/v1/estimate"), bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(op))
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var rp reply
	if err := json.Unmarshal(data, &rp); err != nil {
		return nil, err
	}
	return &rp, nil
}

// counters are the /metrics values the ledger reads, summed over replicas.
type counters struct {
	hits, misses, entries   float64
	fallbackShards, retries float64
}

func (f *served) scrape() (counters, error) {
	var c counters
	for rep := range f.reps {
		resp, err := f.hc.Get(f.url(rep, "/metrics"))
		if err != nil {
			return c, err
		}
		var m struct {
			Cache struct {
				Hits, Misses, Entries float64
			}
			Cluster struct {
				Scatter struct {
					FallbackShards float64 `json:"fallback_shards"`
				}
				Peers []struct{ Retries float64 }
			}
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			return c, fmt.Errorf("decode /metrics: %w", err)
		}
		c.hits += m.Cache.Hits
		c.misses += m.Cache.Misses
		c.entries += m.Cache.Entries
		c.fallbackShards += m.Cluster.Scatter.FallbackShards
		for _, p := range m.Cluster.Peers {
			c.retries += p.Retries
		}
	}
	return c, nil
}

// settle waits until no replica has a request in flight on two looks 20 ms
// apart: the owner-tier cacheput is fire-and-forget, and the counts per op
// must include the ones still landing when the last reply came back.
func (f *served) settle() error {
	deadline := time.Now().Add(5 * time.Second)
	for idle := 0; idle < 2; {
		if time.Now().After(deadline) {
			return errors.New("replicas still busy 5 s after the last reply")
		}
		busy := false
		for _, rep := range f.reps {
			busy = busy || rep.srv.Inflight() > 0
		}
		if busy {
			idle = 0
		} else {
			idle++
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}
