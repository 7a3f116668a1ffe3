package obs

import (
	"math"
	"testing"
)

// Golden quantile cases: a fixed bucket layout with known counts, and
// the exact values linear interpolation must produce. These pin the
// estimator's arithmetic (episim-top consumes it), so a refactor that
// shifts interpolation by even one bucket fails loudly.
func TestHistogramSnapshotQuantileGolden(t *testing.T) {
	s := HistogramSnapshot{
		Name:   "g",
		Bounds: []float64{0.1, 0.5, 1, 5},
		// per-bucket: 10 in (0,0.1], 20 in (0.1,0.5], 40 in (0.5,1],
		// 20 in (1,5], 10 in (5,+Inf] — 100 total.
		Counts: []uint64{10, 20, 40, 20, 10},
		Count:  100,
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.05, 0.05},   // rank 5 inside the first bucket: 0 + (0.1-0)*5/10
		{0.10, 0.1},    // exactly the first bound
		{0.30, 0.5},    // rank 30 = cumulative end of second bucket
		{0.50, 0.75},   // rank 50: 0.5 + (1-0.5)*20/40
		{0.70, 1.0},    // rank 70 = end of third bucket
		{0.80, 3.0},    // rank 80: 1 + (5-1)*10/20
		{0.95, 5.0},    // rank 95 lands in +Inf: clamp to last finite bound
		{1.00, 5.0},    // everything past the finite bounds clamps
		{0.001, 0.001}, // tiny p: rank 0.1 → 0 + 0.1*(0.1/10)
	}
	for _, c := range cases {
		got := s.Quantile(c.p)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("empty snapshot must return NaN")
	}
	var nilHist *Histogram
	if !math.IsNaN(nilHist.Quantile(0.5)) {
		t.Fatal("nil histogram must return NaN")
	}
	s := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{0, 4, 0}, Count: 4}
	// All mass in (1,2]: any p interpolates inside it.
	if got := s.Quantile(0.5); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("mid-bucket quantile = %v, want 1.5", got)
	}
	// Out-of-range p clamps rather than extrapolating.
	if got := s.Quantile(-1); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("p<0 clamps to minimum: got %v", got)
	}
	if got := s.Quantile(2); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("p>1 clamps to maximum: got %v", got)
	}
	if !math.IsNaN(s.Quantile(math.NaN())) {
		t.Fatal("NaN p must return NaN")
	}
}

func TestHistogramLiveQuantile(t *testing.T) {
	h := NewHistogram("q", "", []float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(50) // third bucket
	}
	// p99: rank 99 of 100 → inside (10,100]: 10 + 90*(99-90)/10 = 91.
	if got := h.Quantile(0.99); math.Abs(got-91) > 1e-9 {
		t.Fatalf("live p99 = %v, want 91", got)
	}
}

func TestCountAtOrBelowGolden(t *testing.T) {
	s := HistogramSnapshot{
		Bounds: []float64{0.1, 0.5, 1},
		Counts: []uint64{10, 20, 40, 30}, // 30 in +Inf
		Count:  100,
	}
	cases := []struct{ v, want float64 }{
		{0.1, 10},
		{0.3, 20}, // 10 + 20*(0.3-0.1)/(0.5-0.1)
		{0.5, 30},
		{0.75, 50}, // 30 + 40*(0.75-0.5)/(1-0.5)
		{1, 70},
		{100, 70}, // past every finite bound: +Inf mass stays above
		{0, 0},
	}
	for _, c := range cases {
		if got := s.CountAtOrBelow(c.v); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("CountAtOrBelow(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
