package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMedianAndTailPercentileRule(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	// The highest whole percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n, p int
		ok   bool
	}{{600, 98, true}, {1000, 99, true}, {100, 90, true}, {20, 50, true}, {19, 0, false}, {7, 0, false}} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, p, ok, c.p, c.ok)
		}
		if ok {
			rank := int(math.Ceil(float64(p) / 100 * float64(c.n)))
			if beyond := c.n - rank; beyond < 10 {
				t.Errorf("tailPercentile(%d) = p%d leaves %d samples beyond, want >= 10", c.n, p, beyond)
			}
		}
	}
	v := make([]float64, 600)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 98); got != 588 {
		t.Errorf("p98 of 1..600 = %v, want 588 (12 samples beyond)", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 1.1, 1.3, 2.0], n=4) == [1.025, 1.2, 1.825]
	q1, q2, q3 = quartiles([]float64{2.0, 1.0, 1.3, 1.1})
	if math.Abs(q1-1.025) > 1e-12 || math.Abs(q2-1.2) > 1e-12 || math.Abs(q3-1.825) > 1e-12 {
		t.Errorf("quartiles = %v %v %v, want 1.025 1.2 1.825", q1, q2, q3)
	}
	if got, want := spread([]float64{2.0, 1.0, 1.3, 1.1}), 0.8/1.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSpanSelfTimeAndLayerShares(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "bench.unit", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "core.sim", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "core.sim", StartNS: 20, EndNS: 50},            // overlaps span 2: covered once
		{ID: 4, Parent: 1, Name: "ensemble.aggregate", StartNS: 90, EndNS: 120}, // clipped to its parent
		{ID: 5, Parent: 3, Name: "des.simulate", StartNS: 25, EndNS: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	shares := layerShares(spans)
	if got := shares["core"]; math.Abs(got-30.0/130) > 1e-12 {
		t.Errorf("core share = %v, want %v", got, 30.0/130)
	}
	if got := shares["bench"]; math.Abs(got-50.0/130) > 1e-12 {
		t.Errorf("bench share = %v, want %v", got, 50.0/130)
	}

	rec := newRecorder()
	id := rec.begin("t", 0, "partition.multilevel")
	rec.end(id)
	rec.count("partition.edge_cut", 7)
	rec.count("partition.edge_cut", 9)
	if v, n, ok := rec.layerMetric("partition.edge_cut"); !ok || v != 8 || n != 2 {
		t.Errorf("count metric = %v, %d, %v; want 8, 2, true", v, n, ok)
	}
	if _, n, ok := rec.layerMetric("partition.multilevel_ms"); !ok || n != 1 {
		t.Errorf("span metric: n = %d, ok = %v; want 1, true", n, ok)
	}
	if _, _, ok := rec.layerMetric("partition.never_recorded_ms"); ok {
		t.Error("a metric nothing recorded must not resolve")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name     string
		old, new []float64
		decl     metricDecl
		want     string
	}{
		{"within the bound", tight, []float64{1.05, 1.06, 1.04, 1.05, 1.07}, lower, verdictOK},
		{"slower by a fifth", tight, []float64{1.20, 1.21, 1.19, 1.22, 1.20}, lower, verdictRegression},
		{"faster by a fifth", tight, []float64{0.80, 0.81, 0.79, 0.80, 0.82}, lower, verdictImprovement},
		{"throughput down a fifth", tight, []float64{0.80, 0.81, 0.79, 0.80, 0.82}, higher, verdictRegression},
		{"throughput up a fifth", tight, []float64{1.20, 1.21, 1.19, 1.22, 1.20}, higher, verdictImprovement},
		// Medians 1.0 and 1.3, but the new runs spread from 0.9 to 1.7
		// and straddle the old ones: noise cannot be told from a change.
		{"wide and interleaved", tight, []float64{0.90, 1.30, 1.70, 1.05, 1.50}, lower, verdictUnresolved},
		// Just as wide, but every new run is slower than every old one.
		{"wide but apart", tight, []float64{1.20, 1.30, 1.70, 1.25, 1.50}, lower, verdictRegression},
		{"single runs", []float64{1.0}, []float64{1.3}, lower, verdictRegression},
	} {
		if got, _ := judge(c.old, c.new, c.decl); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentSeedsAndDefinitions(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	file := func(seed uint64, persons int) string {
		r := resultsFile{Schema: 1, Seed: seed, Seconds: 10, Workloads: map[string]*workloadResults{}}
		for _, w := range workloads {
			d := &detail{result: result{Correct: true, Attempted: 1, Metrics: map[string]value{}}}
			for _, decl := range c.EndToEnd {
				d.Metrics[decl.Name] = value{1, decl.Unit}
			}
			r.Workloads[w.name] = &workloadResults{Definition: map[string]any{"persons": persons}, Runs: []*detail{d}}
		}
		path := filepath.Join(t.TempDir(), "results.json")
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out, errOut bytes.Buffer
	if code := compareFiles(c, file(7, 100), file(7, 100), &out, &errOut); code != 0 {
		t.Errorf("identical files: exit %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
	if code := compareFiles(c, file(7, 100), file(11, 100), &out, &errOut); code != 2 {
		t.Errorf("different seeds: exit %d, want 2", code)
	}
	if code := compareFiles(c, file(7, 100), file(7, 200), &out, &errOut); code != 2 {
		t.Errorf("different definitions: exit %d, want 2", code)
	}
}

// lastLine parses the result a single-workload run prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestSmokeEveryWorkload runs the whole harness end to end on tiny
// inputs: every workload untraced, printing exactly the declared
// end-to-end metrics with every output check (golden digests included)
// passing.
func TestSmokeEveryWorkload(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, c.Workloads[i].Name, w.name)
		}
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", w.name, "--smoke", "--seed", "7", "--trace", "0"}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", w.name, code, out.String(), errOut.String())
		}
		r := lastLine(t, out.String())
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d operations failed\n%s", w.name, r.Correct, r.Failed, r.Attempted, out.String())
		}
		if len(r.Metrics) != len(c.EndToEnd) {
			t.Errorf("%s: %d metrics printed, %d declared", w.name, len(r.Metrics), len(c.EndToEnd))
		}
		for _, decl := range c.EndToEnd {
			if v, ok := r.Metrics[decl.Name]; !ok || v.Unit != decl.Unit || v.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.name, decl.Name, v, ok, decl.Unit)
			}
		}
	}
}

// TestSmokeTracedRun runs one traced run, which exercises a traced unit
// of every workload, and checks that every declared per-layer metric was
// really measured and that a trace file was written.
func TestSmokeTracedRun(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "sweep-fork", "--smoke", "--seed", "11", "--trace", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	r := lastLine(t, out.String())
	if !r.Correct || r.Failed != 0 {
		t.Errorf("correct %v, %d of %d operations failed\n%s", r.Correct, r.Failed, r.Attempted, out.String())
	}
	for _, decl := range c.PerLayer {
		if v, ok := r.Metrics[decl.Name]; !ok || v.Unit != decl.Unit {
			t.Errorf("per-layer metric %s = %+v (present %v), want unit %s", decl.Name, v, ok, decl.Unit)
		}
	}
	if len(r.Metrics) != len(c.PerLayer) {
		t.Errorf("%d metrics printed, %d declared", len(r.Metrics), len(c.PerLayer))
	}
	if cov := r.Metrics["trace.coverage_frac"].Value; cov < 0.95 {
		t.Errorf("spans cover %.3f of the traced units, want >= 0.95", cov)
	}
	data, err := os.ReadFile(filepath.Join(c.root, "bench", "out", "trace-sweep-fork.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace file: %d spans, err %v", len(spans), err)
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS || s.ID == 0 || s.TraceID == "" {
			t.Fatalf("malformed span %+v", s)
		}
	}
}
