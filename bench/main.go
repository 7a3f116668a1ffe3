// Command bench is the repo's benchmark: five named workloads, each
// isolating one group of layers, measured end to end with tracing off
// and layer by layer in a separate traced run. BENCHMARK.json at the
// repo root declares the workloads, the metrics and the bound by which
// each end-to-end metric may worsen; README.md in this directory says
// what every number means.
//
//	go run ./bench                        every workload, results in bench/out/results.json
//	go run ./bench -trace 1               the same, then the traced runs and layer-share tables
//	go run ./bench -workload sim-dense    one workload; the last line of output is its result as JSON
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// contract is BENCHMARK.json: the benchmark prints exactly the metrics
// it declares and compares runs by the bounds it fixes.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
	// root is the directory the file was found in: the checkout.
	root string
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadContract finds BENCHMARK.json in the working directory (go run
// ./bench from the repo root) or its parent (go test in bench/).
func loadContract() (*contract, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		c := &contract{root: dir}
		if err := json.Unmarshal(data, c); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return c, nil
	}
	return nil, errors.New("BENCHMARK.json not found: run from the repository root")
}

// value is one reported metric, in the form the gating driver reads.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is what a single-workload run leaves in bench/out for the
// all-workloads run to fold into results.json: the result plus what the
// one-line form has no room for.
type detail struct {
	result
	Samples map[string]int `json:"samples"`
	// Raw is every sample behind the medians, in the order taken.
	Raw        map[string][]float64 `json:"raw,omitempty"`
	Definition map[string]any       `json:"definition,omitempty"`
	Extra      map[string]float64   `json:"extra,omitempty"`
	// Digest is the hash of the workload's outputs that golden.json pins.
	Digest string   `json:"digest,omitempty"`
	Errors []string `json:"errors,omitempty"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool
	sets     int
	out      string
	golden   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print its result as the last line (default: all, each in its own process)")
	fs.Uint64Var(&o.seed, "seed", goldenSeed, "workload seed: every input is generated from it")
	fs.IntVar(&o.seconds, "seconds", 0, "seconds of measuring per workload (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, trace file and layer-share table")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs, for testing the harness; the numbers mean nothing")
	fs.IntVar(&o.sets, "sets", 1, "with all workloads: back-to-back sets of runs")
	fs.StringVar(&o.out, "out", "", "with all workloads: results file (default bench/out/results.json)")
	fs.BoolVar(&o.golden, "update-golden", false, "with all workloads at the golden seed: rewrite golden.json from this run's outputs")
	compare := fs.Bool("compare", false, "compare two results files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c, err := loadContract()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.seconds <= 0 {
		o.seconds = c.RunSeconds
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results files")
			return 2
		}
		return compareFiles(c, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case o.workload != "":
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: no workload %q\n", o.workload)
			return 2
		}
		runOne := measureWorkload
		if o.trace == 1 {
			runOne = traceWorkload
		}
		d, err := runOne(c, w, o, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		line, _ := json.Marshal(d.result)
		fmt.Fprintln(stdout, string(line))
		return 0
	default:
		return runAll(c, o, stdout, stderr)
	}
}

func (c *contract) why(workload string) string {
	for _, w := range c.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

func (c *contract) outDir() (string, error) {
	dir := filepath.Join(c.root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// duration is how long to measure: --seconds, or only the minimum
// number of units on smoke inputs.
func (o options) duration() time.Duration {
	if o.smoke {
		return 0
	}
	return time.Duration(o.seconds) * time.Second
}

func (o options) params(dir string) params {
	return params{seed: o.seed, smoke: o.smoke, dir: dir}
}

// setUpRepeats is how many times an untraced run sets its workload up
// from nothing; setup_s is the median. One set-up is one sample, and
// set-up time is gated like any other metric.
const setUpRepeats = 3

// measureWorkload is the untraced run: the end-to-end metrics.
func measureWorkload(c *contract, w workload, o options, stdout io.Writer) (*detail, error) {
	dir, err := c.outDir()
	if err != nil {
		return nil, err
	}
	repeats := setUpRepeats
	if o.smoke {
		repeats = 1
	}
	var inst instance
	var setUps []float64
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		if inst, err = w.setUp(o.params(dir)); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setUps = append(setUps, time.Since(t0).Seconds())
	}
	defer inst.close()

	m := inst.measure(o.duration())
	m.checks(inst.verify())
	m.checks(goldenCheck(w.name, o, inst))
	if len(m.wall) == 0 || len(m.second) == 0 || m.busy == 0 {
		return nil, fmt.Errorf("%s: no timed unit completed: %v", w.name, m.errs)
	}

	measured := map[string]float64{
		"setup_s":       median(setUps),
		"wall_s":        median(m.wall),
		"second_wall_s": median(m.second),
	}
	samples := map[string]int{
		"setup_s": len(setUps), "wall_s": len(m.wall), "second_wall_s": len(m.second),
	}
	d := &detail{
		result:     result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]value{}},
		Samples:    samples,
		Raw:        map[string][]float64{"setup_s": setUps, "wall_s": m.wall, "second_wall_s": m.second},
		Definition: inst.describe(),
		Extra:      m.extra,
		Digest:     inst.digest(),
		Errors:     m.errs,
	}
	fmt.Fprintf(stdout, "%s  seed %d  %d s of measuring  (%s)\n", w.name, o.seed, o.seconds, c.why(w.name))
	for _, decl := range c.EndToEnd {
		v, ok := measured[decl.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares end-to-end metric %q, which this benchmark does not measure", decl.Name)
		}
		d.Metrics[decl.Name] = value{v, decl.Unit}
		fmt.Fprintf(stdout, "  %-16s %12.6g %-6s n=%d\n", decl.Name, v, decl.Unit, samples[decl.Name])
	}
	if m.extra == nil {
		m.extra = map[string]float64{}
	}
	m.extra["ops_per_s"] = float64(m.ops) / m.busy
	m.extra["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(stdout, "  %-16s %12.6g %-6s n=%d\n", "ops_per_s", m.extra["ops_per_s"], "1/s", m.ops)
	fmt.Fprintf(stdout, "  %-16s %12.6g %-6s whole process\n", "peak_rss_mb", m.extra["peak_rss_mb"], "MB")
	if p, ok := m.extra["done_tail_percentile"]; ok {
		fmt.Fprintf(stdout, "  %-16s %12.6g %-6s p%.0f of n=%d\n", "done_tail_s", m.extra["done_tail_s"], "s", p, len(m.wall))
	}
	fmt.Fprintf(stdout, "  %-16s %12d\n  %-16s %12d\n", "ops_attempted", m.attempted, "ops_failed", m.failed)
	for _, e := range m.errs {
		fmt.Fprintln(stdout, "  FAILED", e)
	}
	return d, writeJSON(filepath.Join(dir, "run-"+w.name+".json"), d)
}

// shareLayers are the layers the share table is reported for, as
// per-layer metrics "share.<layer>". "bench" is the part of the traced
// units no layer span covers.
var shareLayers = []string{"core", "ensemble", "partition", "graph", "splitloc", "synthpop", "artifact", "server", "cluster", "client", "bench"}

// traceWorkload is the traced run: the per-layer metrics. It runs one
// traced unit of every workload, so that every layer's numbers are
// measured whichever workload was asked for, and spends --seconds on the
// named one, alternating plain and traced units: its layer shares and
// the cost of tracing come from there.
func traceWorkload(c *contract, w workload, o options, stdout io.Writer) (*detail, error) {
	dir, err := c.outDir()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	total := &measurement{}
	var named *measurement
	for _, other := range workloads {
		// Each workload's peak memory is read from a high-water mark reset
		// after the previous workload's heap went back to the OS.
		debug.FreeOSMemory()
		resetPeakRSS()
		inst, err := other.setUp(o.params(dir))
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", other.name, err)
		}
		d := time.Duration(0)
		if other.name == w.name {
			d = o.duration()
		}
		m := inst.trace(d, rec)
		if other.name == w.name {
			named = m
			m.checks(inst.verify())
		}
		inst.close()
		rec.count("mem.peak_rss_mb."+other.name, peakRSSMB())
		total.attempted += m.attempted
		total.failed += m.failed
		total.errs = append(total.errs, m.errs...)
	}
	if len(named.wall) == 0 || len(named.traced) == 0 {
		return nil, fmt.Errorf("%s: no traced unit completed: %v", w.name, total.errs)
	}

	// Shares and coverage are read from the named workload's traced
	// units only: their trace ids start with its name.
	var units []span
	for _, s := range rec.snapshot() {
		if strings.HasPrefix(s.TraceID, w.name+"-") {
			units = append(units, s)
		}
	}
	shares := layerShares(units)
	for _, l := range shareLayers {
		rec.count("share."+l, shares[l])
	}
	var rootSelf, allSelf int64
	self := selfTimes(units)
	for _, s := range units {
		allSelf += self[s.ID]
		if s.Parent == 0 {
			rootSelf += self[s.ID]
		}
	}
	rec.count("trace.coverage_frac", 1-float64(rootSelf)/float64(max(allSelf, 1)))
	rec.count("obs.trace_overhead_frac", median(named.traced)/median(named.wall)-1)

	d := &detail{
		result:  result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: map[string]value{}},
		Samples: map[string]int{},
		Errors:  total.errs,
	}
	fmt.Fprintf(stdout, "%s  seed %d  traced  (%d plain and %d traced units)\n", w.name, o.seed, len(named.wall), len(named.traced))
	for _, decl := range c.PerLayer {
		v, n, ok := rec.layerMetric(decl.Name)
		if !ok {
			return nil, fmt.Errorf("per-layer metric %q was not measured: %v", decl.Name, total.errs)
		}
		d.Metrics[decl.Name] = value{v, decl.Unit}
		d.Samples[decl.Name] = n
		fmt.Fprintf(stdout, "  %-36s %14.6g %-6s n=%d\n", decl.Name, v, decl.Unit, n)
	}
	fmt.Fprint(stdout, shareTable(w.name, shares))
	for _, e := range total.errs {
		fmt.Fprintln(stdout, "  FAILED", e)
	}
	if err := rec.writeTrace(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return d, writeJSON(filepath.Join(dir, "run-"+w.name+"-trace.json"), d)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
