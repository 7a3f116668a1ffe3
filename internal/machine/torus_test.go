package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/charm"
)

func TestTorusCoordsRoundTrip(t *testing.T) {
	tor := Torus{X: 3, Y: 4, Z: 5}
	seen := map[[3]int]bool{}
	for n := 0; n < tor.Nodes(); n++ {
		x, y, z := tor.Coords(n)
		if x < 0 || x >= 3 || y < 0 || y >= 4 || z < 0 || z >= 5 {
			t.Fatalf("node %d coords (%d,%d,%d) out of range", n, x, y, z)
		}
		key := [3]int{x, y, z}
		if seen[key] {
			t.Fatalf("duplicate coords for node %d", n)
		}
		seen[key] = true
	}
}

func TestHopDistanceBasics(t *testing.T) {
	tor := Torus{X: 4, Y: 4, Z: 4}
	if d := tor.HopDistance(0, 0); d != 0 {
		t.Fatalf("self distance %d", d)
	}
	if d := tor.HopDistance(0, 1); d != 1 {
		t.Fatalf("neighbor distance %d", d)
	}
	// Wraparound: node 3 in x is one hop from node 0 on a size-4 ring.
	if d := tor.HopDistance(0, 3); d != 1 {
		t.Fatalf("wraparound distance %d, want 1", d)
	}
	// Opposite corner of a 4-ring: 2 hops per dimension.
	opposite := 2 + 2*4 + 2*16
	if d := tor.HopDistance(0, opposite); d != 6 {
		t.Fatalf("far distance %d, want 6", d)
	}
}

func TestHopDistanceProperties(t *testing.T) {
	tor := BlueWatersTorus()
	n := tor.Nodes()
	f := func(aRaw, bRaw, cRaw uint16) bool {
		a, b, c := int(aRaw)%n, int(bRaw)%n, int(cRaw)%n
		dab := tor.HopDistance(a, b)
		// Symmetry, identity, triangle inequality, diameter bound.
		if dab != tor.HopDistance(b, a) {
			return false
		}
		if tor.HopDistance(a, a) != 0 {
			return false
		}
		if dab > tor.HopDistance(a, c)+tor.HopDistance(c, b) {
			return false
		}
		return dab <= 23/2+24/2+24/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanHops(t *testing.T) {
	// Ring of 4: distances from any node are {0,1,2,1}: mean 1. Per
	// dimension of a 4x4x4 torus: mean 3.
	tor := Torus{X: 4, Y: 4, Z: 4}
	if m := tor.MeanHops(); m != 3 {
		t.Fatalf("mean hops %v, want 3", m)
	}
	bw := BlueWatersTorus()
	if m := bw.MeanHops(); m < 10 || m > 20 {
		t.Fatalf("Blue Waters mean hops %v implausible", m)
	}
}

func TestDegenerateTorus(t *testing.T) {
	var z Torus
	if z.Nodes() != 0 {
		t.Fatal("zero torus has nodes")
	}
	if x, y, zz := z.Coords(5); x != 0 || y != 0 || zz != 0 {
		t.Fatal("zero torus coords")
	}
	one := Torus{X: 1, Y: 1, Z: 1}
	if one.HopDistance(0, 0) != 0 || one.MeanHops() != 0 {
		t.Fatal("single-node torus distances")
	}
}

func TestExtraLatencyPriced(t *testing.T) {
	c := BlueWatersXE6()
	quiet := []RankPhase{{Compute: 0.001}}
	far := []RankPhase{{Compute: 0.001, ExtraLatency: 0.5}}
	tq := c.PhaseTime(quiet, charm.CompletionDetection).Network
	tf := c.PhaseTime(far, charm.CompletionDetection).Network
	if tf-tq < 0.49 {
		t.Fatalf("extra latency not priced: %v vs %v", tf, tq)
	}
}
