package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// params is what a workload builds its inputs from. The program under
// test never sees the seed, only the inputs generated from it.
type params struct {
	seed uint64
	// smoke shrinks every workload to a fraction of a second so the
	// tier-1 test can run the whole harness; smoke numbers mean nothing.
	smoke bool
	// dir is a scratch directory inside the checkout for the workloads
	// that exercise the disk tier.
	dir string
}

// workload is one named set of inputs. setUp builds the inputs from the
// seed and runs the untimed warm-up unit; everything it does is set-up
// time.
type workload struct {
	name  string
	setUp func(p params) (instance, error)
}

// workloads are listed in the order they run. BENCHMARK.json names the
// same five and says why each exists; later issues refer to them by
// these names.
var workloads = []workload{
	{"sim-dense", newSimDense},
	{"sim-sparse", newSimSparse},
	{"place-cold", newPlaceCold},
	{"sweep-fork", newSweepFork},
	{"service-gw", newServiceGW},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a workload that has been set up.
type instance interface {
	// measure runs timed units for about d (at least a few of each kind)
	// with tracing off; the end-to-end metrics come from here and nowhere
	// else.
	measure(d time.Duration) *measurement
	// trace alternates plain and traced units for about d, at least one
	// of each. The traced unit makes the same calls into the layers as
	// the plain one, step by step, with a span around each.
	trace(d time.Duration, rec *recorder) *measurement
	// verify checks the outputs the units produced, after measuring.
	verify() []check
	// digest is a stable hash of the outputs, compared with golden.json
	// at the golden seed.
	digest() string
	// describe gives the input sizes and the working-set bytes for the
	// results file.
	describe() map[string]any
	close()
}

// check is one output check; a failed check is a failed operation.
type check struct {
	name string
	err  error
}

// measurement is what one measuring phase observed.
type measurement struct {
	// wall is seconds per primary timed unit; second is the workload's
	// secondary timing (parallel run, event-kernel run, disk reload,
	// warm-checkpoint sweep, time to first cell).
	wall, second []float64
	// traced is seconds per traced primary unit (trace runs only).
	traced []float64
	// ops and busy give throughput: operations completed and the
	// seconds they took (for service-gw, the wall of the client phase).
	ops  int
	busy float64
	// attempted counts every timed unit, cell, HTTP call and output
	// check; failed those that errored. A failed operation contributes
	// no sample, so it misses every limit.
	attempted, failed int
	errs              []string
	// extra carries workload-specific numbers for the human report and
	// the results file (tail percentile, reconnects).
	extra map[string]float64
}

func (m *measurement) fail(what string, err error) {
	m.failed++
	if len(m.errs) < 20 {
		m.errs = append(m.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// unit times one operation after a garbage collection, so one unit's
// garbage is not collected on the next unit's clock, and files the
// sample under dst.
func (m *measurement) unit(what string, dst *[]float64, f func() error) {
	runtime.GC()
	t0 := time.Now()
	err := f()
	s := time.Since(t0).Seconds()
	m.attempted++
	if err != nil {
		m.fail(what, err)
		return
	}
	*dst = append(*dst, s)
	m.ops++
	m.busy += s
}

func (m *measurement) checks(cs []check) {
	for _, c := range cs {
		m.attempted++
		if c.err != nil {
			m.fail("check "+c.name, c.err)
		}
	}
}

// minUnits is the fewest timed units of each kind a measuring phase
// runs, however short --seconds is: a median of fewer is one sample.
const minUnits = 3

// repeatFor calls round until d has passed and it ran at least min
// times.
func repeatFor(d time.Duration, min int, round func()) {
	start := time.Now()
	for n := 0; n < min || time.Since(start) < d; n++ {
		round()
	}
}

// digestJSON hashes the JSON encoding of the values, the form the
// repo's byte-identity oracles compare.
func digestJSON(vs ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			panic(err) // plain data structs: cannot fail
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func equalJSON(a, b any) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}
