package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func availPoint(at time.Time, total, bad float64) HistoryPoint {
	return HistoryPoint{Time: at, Scalars: map[string]float64{
		"submit_total": total, "submit_errors": bad,
	}}
}

func TestEvalSLOAvailabilityBurn(t *testing.T) {
	h := NewHistory(8, time.Second, nil)
	base := time.Now()
	h.Append(availPoint(base, 0, 0))
	h.Append(availPoint(base.Add(time.Minute), 100, 2)) // 2% errors

	specs := []SLOSpec{{
		Name: "submit-availability", Objective: 0.99,
		Total: "submit_total", Bad: "submit_errors",
		Windows: []time.Duration{5 * time.Minute},
	}}
	sts := EvalSLOs(h, specs)
	if len(sts) != 1 || len(sts[0].Windows) != 1 {
		t.Fatalf("unexpected shape: %+v", sts)
	}
	sw := sts[0].Windows[0]
	if sw.Total != 100 || sw.Good != 98 {
		t.Fatalf("good/total = %v/%v, want 98/100", sw.Good, sw.Total)
	}
	if math.Abs(sw.ErrorRate-0.02) > 1e-12 {
		t.Fatalf("error rate = %v, want 0.02", sw.ErrorRate)
	}
	// budget = 1-0.99 = 0.01; burn = 0.02/0.01 = 2
	if math.Abs(sw.BurnRate-2) > 1e-9 {
		t.Fatalf("burn = %v, want 2", sw.BurnRate)
	}
	if sts[0].Stale {
		t.Fatal("live windows must not be stale")
	}
}

func TestEvalSLOLatencyMode(t *testing.T) {
	h := NewHistory(8, time.Second, nil)
	base := time.Now()
	mk := func(at time.Time, counts []uint64) HistoryPoint {
		s := HistogramSnapshot{Name: "queue_wait", Bounds: []float64{0.1, 1, 10}, Counts: counts}
		for _, c := range counts {
			s.Count += c
		}
		return HistoryPoint{Time: at, Scalars: map[string]float64{}, Hists: []HistogramSnapshot{s}}
	}
	h.Append(mk(base, []uint64{0, 0, 0, 0}))
	// 8 waits ≤ 0.1s, 2 waits in (1,10]: threshold 1s → 8 good of 10.
	h.Append(mk(base.Add(time.Minute), []uint64{8, 0, 2, 0}))

	sts := EvalSLOs(h, []SLOSpec{{
		Name: "queue-wait", Objective: 0.9,
		Histogram: "queue_wait", ThresholdSeconds: 1,
		Windows: []time.Duration{5 * time.Minute},
	}})
	sw := sts[0].Windows[0]
	if sw.Total != 10 || sw.Good != 8 {
		t.Fatalf("good/total = %v/%v, want 8/10", sw.Good, sw.Total)
	}
	// error 0.2, budget 0.1 → burn 2
	if math.Abs(sw.BurnRate-2) > 1e-9 {
		t.Fatalf("burn = %v, want 2", sw.BurnRate)
	}
}

func TestEvalSLOEmptyRingStableZeroes(t *testing.T) {
	h := NewHistory(8, time.Second, nil)
	sts := EvalSLOs(h, []SLOSpec{{Name: "x", Objective: 0.99, Total: "t", Bad: "b"}})
	if len(sts) != 1 || len(sts[0].Windows) != 2 {
		t.Fatalf("want default 2 windows, got %+v", sts)
	}
	for _, sw := range sts[0].Windows {
		if sw.BurnRate != 0 || sw.ErrorRate != 0 {
			t.Fatalf("empty ring must evaluate to zeros: %+v", sw)
		}
	}
}

func TestEvalSLOStalePropagates(t *testing.T) {
	h := NewHistory(8, time.Second, nil)
	base := time.Now()
	h.Append(availPoint(base, 0, 0))
	p := availPoint(base.Add(time.Second), 10, 0)
	p.Stale = true
	h.Append(p)
	sts := EvalSLOs(h, []SLOSpec{{Name: "x", Objective: 0.99, Total: "submit_total", Bad: "submit_errors"}})
	if !sts[0].Stale {
		t.Fatal("stale window data must mark the SLO stale")
	}
}

func TestWriteSLOPromShape(t *testing.T) {
	sts := []SLOStatus{{
		Name: "submit-availability", Objective: 0.99, Stale: true,
		Windows: []SLOWindow{
			{Window: "5m", ErrorRate: 0.5, BurnRate: 50},
			{Window: "1h", ErrorRate: 0.1, BurnRate: 10},
		},
	}}
	var b strings.Builder
	WriteSLOProm(&b, sts)
	out := b.String()
	for _, want := range []string{
		"# TYPE episim_slo_objective gauge",
		`episim_slo_objective{slo="submit-availability"} 0.99`,
		`episim_slo_burn_rate{slo="submit-availability",window="5m"} 50`,
		`episim_slo_burn_rate{slo="submit-availability",window="1h"} 10`,
		`episim_slo_error_rate{slo="submit-availability",window="5m"} 0.5`,
		`episim_slo_stale{slo="submit-availability"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestSLOStatusHelpers(t *testing.T) {
	if WindowLabel(5*time.Minute) != "5m" || WindowLabel(time.Hour) != "1h" || WindowLabel(90*time.Second) != "90s" {
		t.Fatal("WindowLabel formatting drifted")
	}
}
