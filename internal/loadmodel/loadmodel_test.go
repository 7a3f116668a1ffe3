package loadmodel

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestPaperModelConstants(t *testing.T) {
	m := Paper()
	// φ must be the intersection of the two published lines: ≈1380 events.
	if m.Phi < 1300 || m.Phi > 1450 {
		t.Fatalf("phi = %v, want ≈1380", m.Phi)
	}
	// At the crossover both lines agree, so the blend equals them.
	ya := m.A1 + m.B1*m.Phi
	yb := m.A2 + m.B2*m.Phi
	if math.Abs(ya-yb) > 1e-12 {
		t.Fatalf("lines do not intersect at phi: %v vs %v", ya, yb)
	}
	if math.Abs(m.Load(m.Phi)-ya) > 1e-9 {
		t.Fatalf("Load(phi) = %v, want %v", m.Load(m.Phi), ya)
	}
}

func TestPaperModelRegimes(t *testing.T) {
	m := Paper()
	// Far below the crossover the low line dominates; far above, the high
	// line. The sigmoid at width 1 is a near-step.
	lo := m.Load(100)
	wantLo := m.A1 + m.B1*100
	if math.Abs(lo-wantLo)/wantLo > 1e-6 {
		t.Fatalf("low regime: %v vs %v", lo, wantLo)
	}
	hi := m.Load(100000)
	wantHi := m.A2 + m.B2*100000
	if math.Abs(hi-wantHi)/wantHi > 1e-6 {
		t.Fatalf("high regime: %v vs %v", hi, wantHi)
	}
}

func TestStaticLoadMonotoneAndNonNegative(t *testing.T) {
	m := Paper()
	prev := m.Load(0)
	if prev < 0 {
		t.Fatal("negative load at 0")
	}
	for x := 10.0; x < 2e5; x *= 1.6 {
		cur := m.Load(x)
		if cur < prev {
			t.Fatalf("load not monotone at %v: %v < %v", x, cur, prev)
		}
		prev = cur
	}
}

func TestStaticVisitLoads(t *testing.T) {
	m := Paper()
	visits := []int32{10, 100, 1000}
	out := m.VisitLoads(visits)
	if len(out) != 3 || out[0] > out[1] || out[1] > out[2] {
		t.Fatalf("VisitLoads broken: %v", out)
	}
	// A visit is two events: one arrive, one depart.
	for i, v := range visits {
		if out[i] != m.Load(float64(2*v)) || out[i] != m.VisitLoad(v) {
			t.Fatalf("VisitLoads[%d] = %v, want Load(%d events) = %v", i, out[i], 2*v, m.Load(float64(2*v)))
		}
	}
}

func TestFitStaticRecoversPiecewise(t *testing.T) {
	// Generate data from a known two-piece linear function with noise and
	// verify the fit recovers slopes and crossover.
	truth := Static{Mu: 1, Phi: 500, Rho: 1, Width: 1, A1: 1, B1: 0.5, A2: -99, B2: 0.7}
	s := xrand.NewStream(3)
	var xs, ys []float64
	for i := 0; i < 400; i++ {
		x := float64(s.Intn(2000))
		xs = append(xs, x)
		ys = append(ys, truth.Load(x)*(1+0.01*s.NormFloat64()))
	}
	m, err := FitStatic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Phi-500) > 100 {
		t.Fatalf("fitted phi = %v, want ≈500", m.Phi)
	}
	if math.Abs(m.B1-0.5) > 0.05 || math.Abs(m.B2-0.7) > 0.05 {
		t.Fatalf("fitted slopes %v/%v, want 0.5/0.7", m.B1, m.B2)
	}
	// Mean relative error of the fit should be small — the paper reports
	// ≈5% for its model.
	var pred, obs []float64
	for i := range xs {
		pred = append(pred, m.Load(xs[i]))
		obs = append(obs, ys[i])
	}
	if e := stats.MeanRelativeError(pred, obs); e > 0.06 {
		t.Fatalf("fit error = %v, want < 6%%", e)
	}
}

func TestFitStaticErrors(t *testing.T) {
	if _, err := FitStatic([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch not detected")
	}
	if _, err := FitStatic([]float64{1, 2, 3}, []float64{1, 2, 3}); err == nil {
		t.Fatal("too few points not detected")
	}
}

func TestFitDynamicRecoversCoefficients(t *testing.T) {
	truth := Dynamic{C0: 2, C1: 0.3, C2: 0.05, C3: 4}
	s := xrand.NewStream(9)
	var es, is, rs, ys []float64
	for i := 0; i < 500; i++ {
		e := float64(s.Intn(1000))
		in := float64(s.Intn(5000))
		r := s.Float64() * 10
		es = append(es, e)
		is = append(is, in)
		rs = append(rs, r)
		ys = append(ys, truth.Load(e, in, r)+0.1*s.NormFloat64())
	}
	m, err := FitDynamic(es, is, rs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.C1-0.3) > 0.01 || math.Abs(m.C2-0.05) > 0.01 || math.Abs(m.C3-4) > 0.1 {
		t.Fatalf("fitted %+v, want %+v", m, truth)
	}
}

func TestFitDynamicSingular(t *testing.T) {
	// All-constant predictors make the normal equations singular.
	n := 20
	es := make([]float64, n)
	ys := make([]float64, n)
	if _, err := FitDynamic(es, es, es, ys); err == nil {
		t.Fatal("singular system not detected")
	}
}

func TestFitDynamicErrors(t *testing.T) {
	if _, err := FitDynamic([]float64{1}, []float64{1}, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestDynamicLoadClamped(t *testing.T) {
	m := Dynamic{C0: -5}
	if m.Load(0, 0, 0) != 0 {
		t.Fatal("negative dynamic load not clamped")
	}
}

func TestPersonLoad(t *testing.T) {
	if PersonLoad(7) != 7 {
		t.Fatal("person load must equal message count")
	}
}

func TestQuantizerPreservesRatios(t *testing.T) {
	loads := []float64{0.001, 0.002, 0.01, 1.0}
	q := NewQuantizer(loads, 100)
	a := q.Quantize(0.001)
	b := q.Quantize(0.002)
	c := q.Quantize(1.0)
	if a < 50 {
		t.Fatalf("smallest load quantized to %d, want >= ~100", a)
	}
	if math.Abs(float64(b)/float64(a)-2) > 0.05 {
		t.Fatalf("ratio broken: %d vs %d", b, a)
	}
	if math.Abs(float64(c)/float64(a)-1000) > 20 {
		t.Fatalf("large ratio broken: %d vs %d", c, a)
	}
}

func TestQuantizeZeroAndNegative(t *testing.T) {
	q := NewQuantizer([]float64{1, 2}, 10)
	if q.Quantize(0) != 0 || q.Quantize(-1) != 0 {
		t.Fatal("non-positive loads must quantize to 0")
	}
	if q.Quantize(1e-12) < 1 {
		t.Fatal("tiny positive load must quantize to >= 1")
	}
}

func TestQuantizerDegenerate(t *testing.T) {
	q := NewQuantizer(nil, 10)
	if q.Quantize(5) < 1 {
		t.Fatal("degenerate quantizer broken")
	}
	q2 := NewQuantizer([]float64{0, 0}, 10)
	if q2.Quantize(1) < 1 {
		t.Fatal("all-zero quantizer broken")
	}
}

func TestQuantizerHugeRangeCapped(t *testing.T) {
	loads := []float64{1e-12, 1e12}
	q := NewQuantizer(loads, 1000)
	u := q.Quantize(1e12)
	if u <= 0 || u > 1<<41 {
		t.Fatalf("huge load quantized to %d, overflow risk", u)
	}
}

func BenchmarkStaticLoad(b *testing.B) {
	m := Paper()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.Load(float64(i % 10000))
	}
	_ = sink
}
