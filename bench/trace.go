package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one timed unit (or one
// submitted sweep) share a trace id; Parent is the id of the span that
// caused this one, 0 for a root. The layer is the part of Name before
// the first dot ("partition.multilevel" belongs to layer "partition").
type span struct {
	TraceID string `json:"trace_id"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps the spans and counts of a traced run in memory; they
// are written out once, when the run ends. It lives in the benchmark and
// wraps calls into the layers' public functions — the program under test
// carries no instrumentation of the benchmark's.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string][]float64{}}
}

// begin opens a span now and returns its id for end.
func (r *recorder) begin(traceID string, parent int, name string) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{TraceID: traceID, ID: len(r.spans) + 1, Parent: parent, Name: name, StartNS: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// add records a span that was timed elsewhere (a daemon-side stage
// fetched from the trace endpoint, an executor span from a sweep's
// timeline), re-parented under a span of the benchmark's own.
func (r *recorder) add(traceID string, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{TraceID: traceID, ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds()})
	return len(r.spans)
}

// count records one observation of a named per-layer quantity, taken at
// the same boundary as the spans around it.
func (r *recorder) count(name string, v float64) {
	r.mu.Lock()
	r.counts[name] = append(r.counts[name], v)
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerMetric resolves a declared per-layer metric from what was
// recorded: a count by that name wins; otherwise "x.y_ms" is the median
// duration of the spans named "x.y". The median is taken over every
// observation of the run.
func (r *recorder) layerMetric(name string) (float64, int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.counts[name]; ok {
		return median(v), len(v), true
	}
	if op, ok := strings.CutSuffix(name, "_ms"); ok {
		var ms []float64
		for _, s := range r.spans {
			if s.Name == op {
				ms = append(ms, float64(s.EndNS-s.StartNS)/1e6)
			}
		}
		if len(ms) > 0 {
			return median(ms), len(ms), true
		}
	}
	return 0, 0, false
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes maps each span id to its self time: the span's duration
// minus the part of that interval its child spans cover. Children that
// overlap one another (parallel workers) are covered once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, upTo), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// layerShares sums self time by layer over the spans and returns each
// layer's share of the total. The benchmark's own root spans are layer
// "bench": their self time is what no layer span accounts for, so
// 1 - shares["bench"] is the trace's coverage of the timed units.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byLayer := map[string]int64{}
	var total int64
	for _, s := range spans {
		byLayer[layerOf(s.Name)] += self[s.ID]
		total += self[s.ID]
	}
	shares := make(map[string]float64, len(byLayer))
	for l, ns := range byLayer {
		shares[l] = float64(ns) / float64(max(total, 1))
	}
	return shares
}

// writeTrace dumps the run's spans as JSON, ordered by id (creation
// order): one object per span with the fields of the span type.
func (r *recorder) writeTrace(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// shareTable renders layer shares largest first, for the end-of-run
// report.
func shareTable(workload string, shares map[string]float64) string {
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "layer shares of %s (self time, traced units):\n", workload)
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-12s %6.2f %%\n", l, 100*shares[l])
	}
	return b.String()
}

// spanNS is the duration of a finished span.
func (r *recorder) spanNS(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].EndNS - r.spans[id-1].StartNS
}
