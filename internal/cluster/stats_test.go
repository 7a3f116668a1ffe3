package cluster

import (
	"testing"
	"time"
)

// TestDegradedStatsCarryTimestamp ejects the only backend and checks the
// degraded /v1/stats path serves its last-known snapshot with the time
// it was actually taken.
func TestDegradedStatsCarryTimestamp(t *testing.T) {
	tc := bootCluster(t, 1, Config{ProbeInterval: time.Hour, FailAfter: 1})

	// A live read stamps the snapshot time the stale path will later
	// report.
	var live StatsReply
	mustGetJSON(t, tc.gwURL+"/v1/stats", &live)
	if live.Backends[0].StatsStale {
		t.Fatalf("live backend reported stale: %+v", live.Backends[0])
	}

	// Kill the backend and eject it (FailAfter 1: one failed round).
	tc.backends[0].Close()
	tc.gw.probeAll()

	var degraded StatsReply
	mustGetJSON(t, tc.gwURL+"/v1/stats", &degraded)
	bs := degraded.Backends[0]
	if bs.Healthy {
		t.Fatal("backend still healthy after probe round against a closed listener")
	}
	if !bs.StatsStale || bs.Stats == nil {
		t.Fatalf("degraded path did not serve last-known stats: %+v", bs)
	}
	if bs.StatsUpdated == nil {
		t.Fatal("stale stats carry no stats_updated timestamp")
	}
	if age := time.Since(*bs.StatsUpdated); age < 0 || age > time.Minute {
		t.Fatalf("stats_updated %v is not a recent snapshot time", bs.StatsUpdated)
	}
	// The aggregate still carries the last-known counters, flagged.
	if degraded.Gateway.FleetHealthy != 0 {
		t.Fatalf("fleet_healthy = %d with every backend down", degraded.Gateway.FleetHealthy)
	}

}
