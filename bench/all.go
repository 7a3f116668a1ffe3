package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// resultsFile is bench/out/results.json (and baseline/results.json):
// where the numbers were taken, what was run, and every run's result.
type resultsFile struct {
	Schema    int                         `json:"schema"`
	Env       environment                 `json:"env"`
	Seed      uint64                      `json:"seed"`
	Seconds   int                         `json:"seconds"`
	Smoke     bool                        `json:"smoke,omitempty"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	Why string `json:"why"`
	// Definition is the input sizes and working-set bytes; two files are
	// comparable only where it is equal.
	Definition map[string]any `json:"definition"`
	// Runs are the untraced runs, one per set; Trace is the traced run.
	Runs  []*detail `json:"runs"`
	Trace *detail   `json:"trace,omitempty"`
}

// runAll runs every workload, each in a process of its own so that one
// workload's heap, caches and peak memory cannot colour the next one's,
// and folds their results into one file.
func runAll(c *contract, o options, stdout, stderr io.Writer) int {
	dir, err := c.outDir()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	out := &resultsFile{Schema: 1, Env: fingerprint(), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
		Workloads: map[string]*workloadResults{}}
	golden := map[string]string{}
	if o.golden {
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			fmt.Fprintln(stderr, "bench: golden.json:", err)
			return 1
		}
	}
	failed := 0
	child := func(w workload, trace int) *detail {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace)}
		if o.smoke {
			args = append(args, "-smoke")
		}
		if o.golden {
			args = append(args, "-update-golden")
		}
		cmd := exec.Command(self, args...)
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			failed++
			return nil
		}
		name := "run-" + w.name + ".json"
		if trace == 1 {
			name = "run-" + w.name + "-trace.json"
		}
		var d detail
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err == nil {
			err = json.Unmarshal(data, &d)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			failed++
			return nil
		}
		failed += d.Failed
		return &d
	}
	start := time.Now()
	for set := 1; set <= o.sets; set++ {
		if o.sets > 1 {
			fmt.Fprintf(stdout, "--- set %d of %d\n", set, o.sets)
		}
		for _, w := range workloads {
			d := child(w, 0)
			if d == nil {
				continue
			}
			wr := out.Workloads[w.name]
			if wr == nil {
				wr = &workloadResults{Why: c.why(w.name), Definition: d.Definition}
				out.Workloads[w.name] = wr
			}
			d.Definition = nil
			wr.Runs = append(wr.Runs, d)
			golden[goldenKey(w.name, o.smoke)] = d.Digest
		}
	}
	if o.trace == 1 {
		for _, w := range workloads {
			if wr := out.Workloads[w.name]; wr != nil {
				wr.Trace = child(w, 1)
			}
		}
	}
	path := o.out
	if path == "" {
		path = filepath.Join(dir, "results.json")
	}
	if err := writeJSON(path, out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%d sets of %d workloads in %.0f s; results in %s\n", o.sets, len(workloads), time.Since(start).Seconds(), path)
	if o.golden && failed == 0 {
		if o.seed != goldenSeed {
			fmt.Fprintf(stderr, "bench: -update-golden needs -seed %d\n", goldenSeed)
			return 2
		}
		if err := writeJSON(filepath.Join(c.root, "bench", "golden.json"), golden); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "golden.json rewritten")
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "bench: %d operations failed\n", failed)
		return 1
	}
	return 0
}
