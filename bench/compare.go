package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Verdicts of a comparison, per end-to-end metric and workload.
const (
	verdictOK          = "ok"
	verdictRegression  = "regression"
	verdictImprovement = "improvement"
	// verdictUnresolved: the medians differ by more than the bound, but
	// a side's own runs spread wider than the bound and the two sides'
	// runs interleave, so the difference may be noise. Not "unchanged".
	verdictUnresolved = "unresolved"
)

// judge compares the runs of one metric on one workload. change is how
// much worse the new median is, as a share of the old (negative =
// better), in the metric's own direction.
func judge(old, new []float64, decl metricDecl) (verdict string, change float64) {
	mo, mn := median(old), median(new)
	if mo == 0 {
		return verdictUnresolved, 0
	}
	change = (mn - mo) / mo
	if decl.Better == "higher" {
		change = -change
	}
	if math.Abs(change) <= decl.Bound {
		return verdictOK, change
	}
	wide := spread(old) > decl.Bound || spread(new) > decl.Bound
	apart := slices.Min(new) > slices.Max(old) || slices.Max(new) < slices.Min(old)
	switch {
	case wide && !apart:
		return verdictUnresolved, change
	case change > 0:
		return verdictRegression, change
	default:
		return verdictImprovement, change
	}
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one verdict per (metric, workload) and returns 0
// only when every one is ok. It refuses files taken with different
// seeds or workload definitions: their numbers answer different
// questions.
func compareFiles(c *contract, oldPath, newPath string, stdout, stderr io.Writer) int {
	oldR, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	newR, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if oldR.Seed != newR.Seed || oldR.Seconds != newR.Seconds || oldR.Smoke != newR.Smoke {
		fmt.Fprintf(stderr, "bench: not comparable: seed %d, %d s, smoke %v against seed %d, %d s, smoke %v\n",
			oldR.Seed, oldR.Seconds, oldR.Smoke, newR.Seed, newR.Seconds, newR.Smoke)
		return 2
	}
	notOK := 0
	fmt.Fprintf(stdout, "%-12s %-14s %12s %12s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "worse", "bound", "verdict")
	for _, w := range workloads {
		ow, nw := oldR.Workloads[w.name], newR.Workloads[w.name]
		if ow == nil || nw == nil {
			fmt.Fprintf(stderr, "bench: not comparable: workload %s is missing from a file\n", w.name)
			return 2
		}
		if !equalJSON(ow.Definition, nw.Definition) {
			fmt.Fprintf(stderr, "bench: not comparable: workload %s is defined differently in the two files\n", w.name)
			return 2
		}
		for _, decl := range c.EndToEnd {
			ov, nv := runValues(ow, decl.Name), runValues(nw, decl.Name)
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Fprintf(stderr, "bench: not comparable: %s has no %s in a file\n", w.name, decl.Name)
				return 2
			}
			v, change := judge(ov, nv, decl)
			if v != verdictOK {
				notOK++
			}
			fmt.Fprintf(stdout, "%-12s %-14s %12.6g %12.6g %+7.1f%% %6.0f%%  %s (n=%d, %d; spread %.1f%%, %.1f%%)\n",
				w.name, decl.Name, median(ov), median(nv), 100*change, 100*decl.Bound, v,
				len(ov), len(nv), 100*spread(ov), 100*spread(nv))
		}
	}
	if notOK > 0 {
		fmt.Fprintf(stdout, "%d verdicts are not ok\n", notOK)
		return 1
	}
	return 0
}

func runValues(w *workloadResults, metric string) []float64 {
	var vs []float64
	for _, r := range w.Runs {
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}
