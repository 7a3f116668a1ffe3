package cluster

import (
	"testing"

	"repro/client"
)

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
			mergeStats(&fleet, st)
		}
		if fleet.UptimeSec != 1000 || fleet.CellsStreamed != 1500 {
			t.Fatalf("merged uptime %v cells %d, want 1000 / 1500", fleet.UptimeSec, fleet.CellsStreamed)
		}
		if want := 1.5; fleet.CellsPerSec != want {
			t.Errorf("merged cells_per_sec = %v, want cells_streamed/uptime_sec = %v", fleet.CellsPerSec, want)
		}
	}

	var idle client.StatsReply
	mergeStats(&idle, client.StatsReply{})
	if idle.CellsPerSec != 0 {
		t.Errorf("cells_per_sec = %v with zero uptime, want 0", idle.CellsPerSec)
	}
}
