package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Sum != 10 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if !almost(s.Std, math.Sqrt(1.25), 1e-12) {
		t.Fatalf("std = %v", s.Std)
	}
	if s.Median != 2.5 {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeOdd(t *testing.T) {
	s := Summarize([]float64{5, 1, 3})
	if s.Median != 3 {
		t.Fatalf("median = %v, want 3", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary should be zero, got %+v", s)
	}
}

func TestSummarizeInts(t *testing.T) {
	s := SummarizeInts([]int{2, 4, 6})
	if s.Mean != 4 || s.N != 3 {
		t.Fatalf("unexpected %+v", s)
	}
}

func TestCCDFBasic(t *testing.T) {
	pts := CCDF([]float64{1, 1, 2, 3})
	if len(pts) != 3 {
		t.Fatalf("want 3 distinct points, got %d", len(pts))
	}
	if pts[0].X != 1 || pts[0].Count != 4 || pts[0].Frac != 1 {
		t.Fatalf("pts[0] = %+v", pts[0])
	}
	if pts[1].X != 2 || pts[1].Count != 2 {
		t.Fatalf("pts[1] = %+v", pts[1])
	}
	if pts[2].X != 3 || pts[2].Count != 1 {
		t.Fatalf("pts[2] = %+v", pts[2])
	}
}

func TestCCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		pts := CCDF(xs)
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].Count >= pts[i-1].Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogHistogramCoversAll(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16, 100, 1000, -5, 0}
	bins := LogHistogram(xs, 2)
	total := 0
	for _, b := range bins {
		total += b.Count
		if b.Hi <= b.Lo {
			t.Fatalf("bad bin %+v", b)
		}
	}
	if total != 7 { // non-positive samples dropped
		t.Fatalf("binned %d samples, want 7", total)
	}
}

func TestLogHistogramPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for factor <= 1")
		}
	}()
	LogHistogram([]float64{1}, 1)
}

func TestPowerLawAlphaRecoversExponent(t *testing.T) {
	// Draw from Pareto(1, alpha): density ~ x^-(alpha+1), so the MLE
	// estimator written for p(x) ~ x^-a should return a = alpha+1.
	s := xrand.NewStream(99)
	alpha := 1.8
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = s.Pareto(1, alpha)
	}
	got := PowerLawAlpha(xs, 1)
	want := alpha + 1
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("alpha = %v, want ~%v", got, want)
	}
}

func TestPowerLawAlphaDegenerate(t *testing.T) {
	if PowerLawAlpha([]float64{1, 2, 3}, 0) != 0 {
		t.Fatal("xmin<=0 should return 0")
	}
	if PowerLawAlpha([]float64{0.1, 0.2}, 1) != 0 {
		t.Fatal("no qualifying samples should return 0")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	f := FitLinearWeighted(xs, ys, nil)
	if !almost(f.A, 1, 1e-9) || !almost(f.B, 2, 1e-9) {
		t.Fatalf("fit = %+v, want A=1 B=2", f)
	}
	if !almost(f.Predict(10), 21, 1e-9) {
		t.Fatalf("predict(10) = %v", f.Predict(10))
	}
}

func TestFitLinearNoisy(t *testing.T) {
	s := xrand.NewStream(4)
	var xs, ys []float64
	for i := 0; i < 2000; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 5+0.25*x+s.NormFloat64())
	}
	f := FitLinearWeighted(xs, ys, nil)
	if math.Abs(f.B-0.25) > 0.01 {
		t.Fatalf("slope = %v, want ~0.25", f.B)
	}
	if math.Abs(f.A-5) > 1 {
		t.Fatalf("intercept = %v, want ~5", f.A)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	f := FitLinearWeighted([]float64{2, 2, 2}, []float64{1, 2, 3}, nil)
	if f.B != 0 || f.A != 2 {
		t.Fatalf("degenerate fit = %+v, want mean", f)
	}
	if g := FitLinearWeighted(nil, nil, nil); g.A != 0 || g.B != 0 {
		t.Fatalf("empty fit = %+v", g)
	}
}

func TestFitLinearMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FitLinearWeighted([]float64{1}, []float64{1, 2}, nil)
}

func TestMeanRelativeError(t *testing.T) {
	if e := MeanRelativeError([]float64{1, 2}, []float64{1, 2}); e != 0 {
		t.Fatalf("exact predictions error = %v", e)
	}
	if e := MeanRelativeError([]float64{1.1}, []float64{1}); !almost(e, 0.1, 1e-9) {
		t.Fatalf("error = %v, want 0.1", e)
	}
}

func TestR2(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	if r := R2(obs, obs); r != 1 {
		t.Fatalf("perfect R2 = %v", r)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r := R2(mean, obs); r != 0 {
		t.Fatalf("mean predictor R2 = %v, want 0", r)
	}
}

func TestMaxOverAvg(t *testing.T) {
	// Paper Figure 2: max load 8 over avg load (24/5) => 1.67.
	loadsA := []float64{8, 4, 4, 4, 4}
	if r := MaxOverAvg(loadsA); !almost(r, 8/(24.0/5), 1e-9) {
		t.Fatalf("ratio = %v", r)
	}
	if MaxOverAvg(nil) != 0 {
		t.Fatal("empty ratio should be 0")
	}
}
