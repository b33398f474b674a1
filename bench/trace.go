package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Spans of one operation share Op; Parent is the ID of the span
// that caused this one (-1 for an operation's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// SelfNs is the span's duration minus the part its children cover;
	// filled by selfTimes.
	SelfNs int64 `json:"self_ns"`
	// Replica is the server that recorded the span (-1 for client and
	// library spans); Bytes is request plus response body size for HTTP
	// handler spans.
	Replica int   `json:"replica"`
	Bytes   int64 `json:"bytes,omitempty"`
}

func (s *span) durMs() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps spans in memory until the run ends. Recording is two clock
// reads and an append under a mutex; the handler wrappers consult on first,
// so an untraced phase pays one atomic load per request. A span's ID is its
// index in spans.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span; the returned func closes and records it, returning
// its duration in milliseconds. Library spans use it around each layer call.
func (t *tracer) begin(name string, parent, op int) func() float64 {
	start := t.now()
	return func() float64 {
		end := t.now()
		t.add(span{Parent: parent, Op: op, Name: name, StartNs: start, EndNs: end, Replica: -1})
		return float64(end-start) / 1e6
	}
}

// reserve allocates a span ID before the span's end is known, so children
// can name it as their parent; finish fills in the end time.
func (t *tracer) reserve(name string, parent, op int) int {
	return t.add(span{Parent: parent, Op: op, Name: name, StartNs: t.now(), Replica: -1})
}

func (t *tracer) finish(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNs = t.now()
	return s.durMs()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes fills SelfNs on every span (spans[i].ID must be i): its duration
// minus the union of its children's intervals, each clipped to the parent. The union matters when
// children overlap (concurrent RPCs under one handler): subtracting their
// summed durations would count the overlap twice and could go negative.
func selfTimes(spans []span) {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && p < len(spans) {
			lo := max(spans[i].StartNs, spans[p].StartNs)
			hi := min(spans[i].EndNs, spans[p].EndNs)
			if hi > lo {
				kids[p] = append(kids[p], iv{lo, hi})
			}
		}
	}
	for i := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, end int64
		end = spans[i].StartNs
		for _, v := range ivs {
			if v.hi <= end {
				continue
			}
			covered += v.hi - max(v.lo, end)
			end = v.hi
		}
		spans[i].SelfNs = spans[i].EndNs - spans[i].StartNs - covered
	}
}

// writeTrace writes spans (with self times) as one JSON array.
func writeTrace(path string, spans []span) error {
	selfTimes(spans)
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
