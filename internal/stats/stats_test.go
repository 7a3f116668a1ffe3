package stats

import (
	"math"
	"testing"

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
