// Package obs is the stack's zero-dependency telemetry layer: latency
// histograms with Prometheus text rendering, trace ids and per-job span
// timelines, the daemons' log/slog set-up, and opt-in pprof/runtime
// instrumentation. Everything here is stdlib-only by design — episimd,
// episim-gw and the sweep CLI all link it, and none of them may grow a
// dependency for observability's sake.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the shared log-scale upper bounds (seconds)
// for every latency histogram in the stack: sub-millisecond cache hits
// through multi-minute state-scale sweeps land in distinct buckets. One
// shared layout means gateway-side aggregation can merge backend
// snapshots by adding bucket counts — mismatched layouts cannot merge.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60, 120, 300, 600,
	}
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe with
// no locks on the hot path: per-bucket atomic counters plus a CAS loop
// over the sum's bits. Bounds are upper bucket edges in ascending order;
// an implicit +Inf bucket catches everything past the last bound.
type Histogram struct {
	name   string
	help   string
	bounds []float64
	// counts[i] is the number of observations v with v <= bounds[i]
	// (and > bounds[i-1]); counts[len(bounds)] is the +Inf bucket.
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram named name with the given bucket
// bounds (nil = DefaultLatencyBuckets). Bounds must be ascending.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Safe for concurrent use; a nil histogram is
// a no-op so call sites need no guards.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound admits v (le is inclusive, matching
	// Prometheus semantics); SearchFloat64s lands on len(bounds) for
	// values past the last bound, which is exactly the +Inf slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed seconds since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Name returns the metric family name.
func (h *Histogram) Name() string { return h.name }

// Snapshot captures the histogram's current state for rendering or
// merging. The per-bucket counts are read without a global lock, so a
// snapshot racing Observe may be off by in-flight observations — fine
// for metrics, which are sampled anyway.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   h.name,
		Help:   h.help,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is one histogram's point-in-time state — the form
// that travels in /v1/stats JSON so the gateway can aggregate backend
// histograms by addition and re-render the fleet-wide distribution.
type HistogramSnapshot struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	// Label/LabelValue carry one optional label pair (e.g.
	// backend="node-0") for vector families.
	Label      string `json:"label,omitempty"`
	LabelValue string `json:"label_value,omitempty"`
	// Bounds are the upper bucket edges; Counts has len(Bounds)+1
	// entries, per-bucket (NOT cumulative — rendering cumulates).
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Merge adds other's buckets into s. Layouts must match (same bounds) —
// the stack guarantees this by sharing DefaultLatencyBuckets; mismatches
// return an error rather than silently corrupting the distribution.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) error {
	if len(s.Bounds) != len(other.Bounds) || len(s.Counts) != len(other.Counts) {
		return fmt.Errorf("obs: cannot merge %s: bucket layouts differ", s.Name)
	}
	for i, b := range s.Bounds {
		if b != other.Bounds[i] {
			return fmt.Errorf("obs: cannot merge %s: bucket bounds differ at %d", s.Name, i)
		}
	}
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Sum += other.Sum
	s.Count += other.Count
	return nil
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) of the observed
// distribution by linear interpolation inside the bucket containing the
// target rank — the same estimator Prometheus's histogram_quantile uses,
// so numbers here and numbers in a dashboard agree. The lowest bucket
// interpolates from 0; ranks landing in the +Inf bucket return the last
// finite bound (the honest answer: "at least this"). An empty snapshot
// returns NaN.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Every product is rounded (an explicit float64) before its sum, so
	// that no target fuses a multiply-add into a reported quantile.
	rank := float64(p * float64(s.Count))
	cum := 0.0
	for i, b := range s.Bounds {
		prev := cum
		cum += float64(s.Counts[i])
		if cum >= rank && s.Counts[i] > 0 {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			frac := (rank - prev) / float64(s.Counts[i])
			if frac < 0 {
				frac = 0
			}
			return lower + float64((b-lower)*frac)
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Quantile estimates the live histogram's p-quantile from a snapshot.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return math.NaN()
	}
	return h.Snapshot().Quantile(p)
}

// CountAtOrBelow estimates how many observations were ≤ v, interpolating
// inside the bucket straddling v — the CDF counterpart of Quantile.
// episim-top uses it to turn a latency histogram into an availability
// ratio ("fraction of queue waits within threshold"). It is linear in
// the bucket counts, so the difference of two snapshots' estimates is
// the estimate for the observations recorded between them.
func (s HistogramSnapshot) CountAtOrBelow(v float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 || math.IsNaN(v) {
		return 0
	}
	cum := 0.0
	for i, b := range s.Bounds {
		if v >= b {
			cum += float64(s.Counts[i])
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		if v > lower && b > lower {
			cum += float64(s.Counts[i]) * (v - lower) / (b - lower)
		}
		return cum
	}
	// v is past every finite bound; +Inf observations are above it.
	return cum
}

// formatLabel renders the snapshot's label pair plus the le bound for a
// _bucket sample ("" label = just the le pair).
func (s HistogramSnapshot) bucketLabels(le string) string {
	if s.Label == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("{%s=%q,le=%q}", s.Label, s.LabelValue, le)
}

func (s HistogramSnapshot) seriesLabels() string {
	if s.Label == "" {
		return ""
	}
	return fmt.Sprintf("{%s=%q}", s.Label, s.LabelValue)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromHeader writes one metric family's HELP/TYPE block in Prometheus
// text format, once before all of the family's series. A family without
// help text gets only its TYPE line.
func PromHeader(w io.Writer, name, kind, help string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// WriteHistogramsProm renders snapshots in Prometheus text format:
// cumulative _bucket series (le-labelled, ending at +Inf), _sum and
// _count, with one # HELP/# TYPE block per family. Snapshots sharing a
// Name (a vector's children) must be adjacent so the family header is
// emitted once.
func WriteHistogramsProm(w io.Writer, snaps []HistogramSnapshot) {
	prev := ""
	for _, s := range snaps {
		if s.Name != prev {
			PromHeader(w, s.Name, "histogram", s.Help)
			prev = s.Name
		}
		cum := uint64(0)
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, s.bucketLabels(formatFloat(b)), cum)
		}
		if len(s.Counts) > len(s.Bounds) {
			cum += s.Counts[len(s.Bounds)]
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, s.bucketLabels("+Inf"), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, s.seriesLabels(), formatFloat(s.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", s.Name, s.seriesLabels(), s.Count)
	}
}

// MergeSnapshots folds a batch of snapshots into acc, keyed by
// (Name, LabelValue): matching families add bucket-wise, new ones
// append. The accumulator stays sorted by name then label value so
// rendering groups vector children under one family header.
func MergeSnapshots(acc []HistogramSnapshot, batch []HistogramSnapshot) []HistogramSnapshot {
	for _, s := range batch {
		merged := false
		for i := range acc {
			if acc[i].Name == s.Name && acc[i].LabelValue == s.LabelValue {
				if acc[i].Merge(s) == nil {
					merged = true
				}
				break
			}
		}
		if !merged {
			cp := s
			cp.Bounds = append([]float64(nil), s.Bounds...)
			cp.Counts = append([]uint64(nil), s.Counts...)
			acc = append(acc, cp)
		}
	}
	sort.SliceStable(acc, func(i, j int) bool {
		if acc[i].Name != acc[j].Name {
			return acc[i].Name < acc[j].Name
		}
		return acc[i].LabelValue < acc[j].LabelValue
	})
	return acc
}

// HistogramVec is a histogram family keyed by one label (e.g. per
// backend). Children are created on first use and live forever — label
// cardinality is expected to be small and bounded (the backend fleet).
type HistogramVec struct {
	name   string
	help   string
	label  string
	bounds []float64

	mu       sync.RWMutex
	children map[string]*Histogram
}

// NewHistogramVec builds a labelled histogram family (nil bounds =
// DefaultLatencyBuckets).
func NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	return &HistogramVec{
		name: name, help: help, label: label, bounds: bounds,
		children: map[string]*Histogram{},
	}
}

// With returns the child histogram for one label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.children[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[value]; h == nil {
		h = NewHistogram(v.name, v.help, v.bounds)
		v.children[value] = h
	}
	return h
}

// Snapshots captures every child, sorted by label value, each stamped
// with the family's label pair.
func (v *HistogramVec) Snapshots() []HistogramSnapshot {
	v.mu.RLock()
	values := make([]string, 0, len(v.children))
	for val := range v.children {
		values = append(values, val)
	}
	v.mu.RUnlock()
	sort.Strings(values)
	out := make([]HistogramSnapshot, 0, len(values))
	for _, val := range values {
		s := v.With(val).Snapshot()
		s.Label = v.label
		s.LabelValue = val
		out = append(out, s)
	}
	return out
}
