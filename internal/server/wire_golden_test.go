package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	episim "repro"
	"repro/client"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// numericLeaves visits every int/int64/float64 leaf of a StatsReply —
// top-level fields and the cache/store sub-blocks — with a dotted path
// ("PlacementStore.GCFiles"). Nil store blocks are skipped; maps and
// slices (KernelDays, Histograms) are not scalar metrics.
func numericLeaves(st *client.StatsReply, visit func(path string, leaf reflect.Value)) {
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			if f.Kind() == reflect.Pointer {
				if f.IsNil() {
					continue
				}
				f = f.Elem()
			}
			switch f.Kind() {
			case reflect.Struct:
				walk(name+".", f)
			case reflect.Int, reflect.Int64, reflect.Float64:
				visit(name, f)
			}
		}
	}
	walk("", reflect.ValueOf(st).Elem())
}

// wireFixture is a StatsReply with every numeric leaf set to a distinct
// non-zero value counting up from seed, so a dropped, swapped or
// double-counted field shows in the golden files.
func wireFixture(seed int, stores bool, kernelDays map[string]int64, hists ...*obs.Histogram) client.StatsReply {
	st := client.StatsReply{KernelDays: kernelDays}
	if stores {
		st.PopulationStore = &episim.SweepStoreStats{}
		st.PlacementStore = &episim.SweepStoreStats{}
		st.ResultStore = &episim.SweepStoreStats{}
		st.CheckpointStore = &episim.SweepStoreStats{}
	}
	n := seed
	numericLeaves(&st, func(_ string, leaf reflect.Value) {
		if leaf.Kind() == reflect.Float64 {
			leaf.SetFloat(float64(n) + 0.5)
		} else {
			leaf.SetInt(int64(n))
		}
		n++
	})
	for _, h := range hists {
		st.Histograms = append(st.Histograms, h.Snapshot())
	}
	return st
}

// wireFixtures returns two distinct replies the way a two-backend fleet
// would report them: a durable daemon with every store block, and a
// memory-only one (nil stores) with a different kernel mix and an
// overlapping-but-different histogram set.
func wireFixtures() (durable, memoryOnly client.StatsReply) {
	hist := func(name string, obsv ...float64) *obs.Histogram {
		h := obs.NewHistogram(name, "Fixture "+name+".", []float64{0.01, 0.1, 1})
		for _, v := range obsv {
			h.Observe(v)
		}
		return h
	}
	durable = wireFixture(100, true, map[string]int64{"dense": 40, "active": 7},
		hist("episimd_submit_seconds", 0.002, 0.03), hist("episimd_queue_wait_seconds", 0.5, 2))
	memoryOnly = wireFixture(1000, false, map[string]int64{"dense": 5, "event": 9},
		hist("episimd_queue_wait_seconds", 0.05), hist("episimd_cell_seconds", 0.2, 0.3, 4))
	return durable, memoryOnly
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the committed wire format\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// wireJSON renders v exactly as WriteJSON puts it on the wire.
func wireJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStatsWireGolden pins the two renderings of a stats snapshot — the
// /v1/stats JSON and the /metrics exposition — for one daemon's reply
// and for the fleet aggregate a gateway builds from two. The files were generated before the metric table
// existed: field order, omitempty, HELP text, metric order and the
// duplicate episimd_checkpoint_builds_total series are the contract.
func TestStatsWireGolden(t *testing.T) {
	durable, memoryOnly := wireFixtures()
	var fleet client.StatsReply
	MergeStats(&fleet, memoryOnly)
	MergeStats(&fleet, durable)

	for _, c := range []struct {
		name string
		st   client.StatsReply
	}{{"stats_reply", durable}, {"stats_merged", fleet}} {
		checkGolden(t, c.name+".json.golden", wireJSON(t, c.st))
		var prom bytes.Buffer
		WriteMetrics(&prom, c.st)
		checkGolden(t, c.name+".prom.golden", prom.Bytes())
	}
}
