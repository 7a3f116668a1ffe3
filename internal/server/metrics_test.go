package server

import (
	"reflect"
	"testing"

	"repro/client"
)

// TestMetricTableCoversEveryReplyField is the "declared once" promise as
// a test: every numeric leaf of client.StatsReply — cache and store
// sub-fields included — must have a metric-table row reading it, or a
// counter added to the reply would be silently dropped by the gateway
// merge and /metrics.
func TestMetricTableCoversEveryReplyField(t *testing.T) {
	fx := wireFixture(100, true, nil) // every leaf holds a distinct value
	numericLeaves(&fx, func(path string, leaf reflect.Value) {
		want := leaf.Convert(reflect.TypeOf(float64(0))).Float()
		for _, m := range metrics {
			if m.value(&fx) == want {
				return
			}
		}
		t.Errorf("client.StatsReply.%s has no row in the metric table (internal/server/metrics.go)", path)
	})
}

// TestMergeStatsCellsPerSecIdentity: every daemon's reply satisfies
// cells_per_sec == cells_streamed / uptime_sec, and the fleet aggregate
// must too — summing per-backend lifetime means breaks it as soon as
// uptimes differ (a freshly restarted backend's burst rate would count
// as if sustained for the oldest backend's whole life).
func TestMergeStatsCellsPerSecIdentity(t *testing.T) {
	old := client.StatsReply{UptimeSec: 1000, CellsStreamed: 1000, CellsPerSec: 1}
	young := client.StatsReply{UptimeSec: 10, CellsStreamed: 500, CellsPerSec: 50}

	for _, order := range [][]client.StatsReply{{old, young}, {young, old}} {
		var fleet client.StatsReply
		for _, st := range order {
			MergeStats(&fleet, st)
		}
		if fleet.UptimeSec != 1000 || fleet.CellsStreamed != 1500 {
			t.Fatalf("merged uptime %v cells %d, want 1000 / 1500", fleet.UptimeSec, fleet.CellsStreamed)
		}
		if want := 1.5; fleet.CellsPerSec != want {
			t.Errorf("merged cells_per_sec = %v, want cells_streamed/uptime_sec = %v", fleet.CellsPerSec, want)
		}
	}

	var idle client.StatsReply
	MergeStats(&idle, client.StatsReply{})
	if idle.CellsPerSec != 0 {
		t.Errorf("cells_per_sec = %v with zero uptime, want 0", idle.CellsPerSec)
	}

	// A consistent reply merged with the zero reply, either way round, is
	// itself: stores stay present, nothing doubles, cells_per_sec holds.
	a, b := wireFixture(100, true, map[string]int64{"dense": 3}), wireFixture(1000, false, nil)
	a.CellsPerSec = float64(a.CellsStreamed) / a.UptimeSec
	var fromZero client.StatsReply
	MergeStats(&fromZero, a)
	ontoZero := wireFixture(100, true, map[string]int64{"dense": 3})
	MergeStats(&ontoZero, client.StatsReply{})
	for name, got := range map[string]client.StatsReply{"zero+a": fromZero, "a+zero": ontoZero} {
		if !reflect.DeepEqual(got, a) {
			t.Errorf("%s = %+v, want a = %+v", name, got, a)
		}
	}

	// Every row merges by its declared rule, whichever side has stores.
	for _, order := range [][]client.StatsReply{{a, b}, {b, a}} {
		var fleet client.StatsReply
		for _, st := range order {
			MergeStats(&fleet, st)
		}
		for _, m := range metrics {
			va, vb, got := m.value(&a), m.value(&b), m.value(&fleet)
			switch {
			case m.merge == mergeSum && got != va+vb:
				t.Errorf("%s: merged %v, want the sum %v + %v", m.name, got, va, vb)
			case m.merge == mergeMax && got != max(va, vb):
				t.Errorf("%s: merged %v, want the max of %v and %v", m.name, got, va, vb)
			}
		}
		if fleet.UptimeSec != b.UptimeSec {
			t.Errorf("uptime_sec = %v, want the longest-lived backend's %v", fleet.UptimeSec, b.UptimeSec)
		}
	}
}
