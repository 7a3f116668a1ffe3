package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// quickOpts keeps experiment smoke tests fast.
func quickOpts() Options {
	return Options{Scale: 4000, AnalysisScale: 1500, Seed: 7, Quick: true}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	// One entry per paper artifact: 2 tables + figs 2..14 (9-11 merged) +
	// headline = 14 experiments.
	if len(all) != 14 {
		t.Fatalf("registry has %d experiments, want 14", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Name == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete registry entry %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"table1", "table2", "fig13", "headline"} {
		if !seen[want] {
			t.Fatalf("missing experiment %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("fig4"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("fig99"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestAllExperimentsRunQuick smoke-runs every artifact regenerator in
// quick mode and sanity-checks the output.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, quickOpts()); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			out := buf.String()
			if len(out) < 40 {
				t.Fatalf("%s produced almost no output:\n%s", e.Name, out)
			}
			if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
				t.Fatalf("%s produced non-finite numbers:\n%s", e.Name, out)
			}
		})
	}
}

func TestTable1DegreeCalibration(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable1(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	// Every generated row must include the achieved degrees; the person
	// degree column should be near 5.5.
	lines := strings.Split(buf.String(), "\n")
	dataLines := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "IA") || strings.HasPrefix(l, "AR") || strings.HasPrefix(l, "WY") {
			dataLines++
		}
	}
	if dataLines != 3 {
		t.Fatalf("quick table1 should have 3 state rows:\n%s", buf.String())
	}
}

func TestTable2ShowsImprovement(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable2(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "improvement") {
		t.Fatalf("missing summary:\n%s", buf.String())
	}
	// The improvement factor must be > 1 (splitLoc must help).
	if strings.Contains(buf.String(), "avg 0x") || strings.Contains(buf.String(), "avg 1x") {
		t.Fatalf("splitLoc shows no improvement:\n%s", buf.String())
	}
}

func TestFig2MatchesPaperTradeoff(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig2(&buf, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Load-optimal must reach the paper's max load of 8.
	if !strings.Contains(out, "max part load  8") {
		t.Fatalf("load-optimal did not reach max load 8:\n%s", out)
	}
}

func TestFig4PlateausOrdered(t *testing.T) {
	var buf bytes.Buffer
	opt := quickOpts()
	if err := runFig4(&buf, opt); err != nil {
		t.Fatal(err)
	}
	// Larger states have higher plateaus: IA >= AR >= WY in the quick set.
	plateaus := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, "plateau(Ltot/lmax)=") {
			continue
		}
		fields := strings.Fields(line)
		name := fields[0]
		numPart := strings.TrimSpace(strings.SplitN(line, "=", 2)[1])
		numField := strings.Fields(numPart)[0]
		v, err := strconv.ParseFloat(numField, 64)
		if err != nil {
			t.Fatalf("cannot parse plateau in %q: %v", line, err)
		}
		plateaus[name] = v
	}
	if len(plateaus) != 3 {
		t.Fatalf("expected 3 plateau rows, got %v\n%s", plateaus, buf.String())
	}
	if !(plateaus["IA"] > plateaus["WY"]) {
		t.Fatalf("plateaus not ordered by size: %v", plateaus)
	}
}

func TestQuickVsFullStateSets(t *testing.T) {
	quick, full := quickOpts().sizes(), Options{}.sizes()
	if len(quick.states) >= len(full.states) {
		t.Fatal("quick set should be smaller")
	}
	if len(quick.fig13States) >= len(full.fig13States) {
		t.Fatal("quick fig13 set should be smaller")
	}
}

func TestPartitionSweepCaps(t *testing.T) {
	ks := Options{}.sizes().partitionSweep(1000)
	if ks[len(ks)-1] > 3072*4 {
		t.Fatalf("sweep not capped: %v", ks)
	}
	full := Options{}.sizes().partitionSweep(1 << 30)
	if full[len(full)-1] != 196608 {
		t.Fatalf("full sweep should reach 196608: %v", full)
	}
}

func TestSubSeriesMonotone(t *testing.T) {
	loads := make([]float64, 500)
	for i := range loads {
		loads[i] = 1 + float64(i%7)
	}
	series := subSeries(loads, []int{2, 8, 32, 128})
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1]*0.99 {
			t.Fatalf("S_ub should not decrease with k on flat loads: %v", series)
		}
	}
}

func TestSubSeriesBottleneck(t *testing.T) {
	// One giant load: S_ub plateaus at Ltot/lmax regardless of k.
	loads := append([]float64{1000}, make([]float64, 99)...)
	for i := 1; i < 100; i++ {
		loads[i] = 1
	}
	series := subSeries(loads, []int{10, 1000})
	want := 1099.0 / 1000.0
	for _, s := range series[1:] {
		if s > want*1.01 {
			t.Fatalf("S_ub exceeds the l_max bound: %v > %v", s, want)
		}
	}
}
