package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// These tests pin the paper-shape claims of the headline artifacts so that
// calibration drift cannot silently break them.

// TestFig12ReductionInPaperBand: the combined communication optimizations
// must reduce modeled time by a meaningful fraction around the paper's
// ~40%.
func TestFig12ReductionInPaperBand(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig12(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 4 || !strings.HasSuffix(fields[3], "%") {
			continue
		}
		red, err := strconv.ParseFloat(strings.TrimSuffix(fields[3], "%"), 64)
		if err != nil {
			continue
		}
		if red < 20 || red > 75 {
			t.Fatalf("optimization reduction %.1f%% outside the plausible band of the paper's ~40%%:\n%s",
				red, buf.String())
		}
	}
}

// TestFig13SplitLocScalesFurther: at the largest swept rank count, both
// splitLoc variants must beat both un-split variants — the paper's core
// result.
func TestFig13SplitLocScalesFurther(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig13(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	last := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		name := fields[0]
		if name != "RR" && name != "GP" && name != "RR-splitLoc" && name != "GP-splitLoc" {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("cannot parse %q", line)
		}
		last[name] = v
	}
	if len(last) != 4 {
		t.Fatalf("missing strategies: %v\n%s", last, buf.String())
	}
	// Compare like with like: each splitLoc variant must beat its own
	// un-split counterpart at the deepest swept point. (Cross-strategy
	// comparisons only separate at rank counts beyond the quick sweep.)
	for _, pair := range [][2]string{{"RR-splitLoc", "RR"}, {"GP-splitLoc", "GP"}} {
		if last[pair[0]] >= last[pair[1]] {
			t.Fatalf("%s (%v) not faster than %s (%v) at the largest rank count",
				pair[0], last[pair[0]], pair[1], last[pair[1]])
		}
	}
}

// TestTable2ImprovementFactorsPositive: every state's L_tot/l_max must
// improve (>1x) under splitLoc.
func TestTable2ImprovementFactorsPositive(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable2(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 7 || !strings.HasSuffix(fields[6], "x") {
			continue
		}
		rows++
		f, err := strconv.ParseFloat(strings.TrimSuffix(fields[6], "x"), 64)
		if err != nil {
			t.Fatalf("bad improvement in %q", line)
		}
		if f < 1 {
			t.Fatalf("splitLoc made %s worse: %vx", fields[0], f)
		}
	}
	if want := len(quickOpts().sizes().states); rows != want {
		t.Fatalf("parsed %d improvement rows, want %d:\n%s", rows, want, buf.String())
	}
}
