package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenSeed is the default seed and the one golden.json holds output
// digests for. Any other seed runs the invariant checks only.
const goldenSeed = 7

//go:embed golden.json
var goldenJSON []byte

// goldenKey names a workload's entry: smoke inputs have their own.
func goldenKey(workload string, smoke bool) string {
	if smoke {
		return workload + "/smoke"
	}
	return workload
}

// goldenCheck compares the digest of a workload's outputs (epidemic
// curves, placements, sweep results) with the committed one: the
// program's answers at the golden seed may not change unnoticed.
func goldenCheck(workload string, o options, inst instance) []check {
	if o.seed != goldenSeed || o.golden {
		return nil
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return []check{{"golden.json", err}}
	}
	key := goldenKey(workload, o.smoke)
	want, ok := golden[key]
	if !ok {
		return []check{{"golden digest", fmt.Errorf("golden.json has no entry %q: run with -update-golden", key)}}
	}
	if got := inst.digest(); got != want {
		return []check{{"golden digest", fmt.Errorf("outputs of %s digest to %s, golden.json says %s", key, got, want)}}
	}
	return []check{{"golden digest", nil}}
}
