package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/charm"
	"repro/internal/interventions"
	"repro/internal/splitloc"
)

// TestPhaseStatsGolden pins every charm.PhaseStats field of every day —
// wire counts, per-PE traffic, local/remote split, reductions: the numbers
// behind the bench's charm.* metrics and the paper's communication figures
// — for nine sequential configurations, as the SHA-256 and length of
// json.Marshal(*Result). A day-loop refactor that means to keep the
// counters must leave testdata/phasestats.golden alone; one that means to
// change them replaces the lines this test prints on failure by hand
// (there is no -update flag on purpose).
func TestPhaseStatsGolden(t *testing.T) {
	pop := testPop(t)
	base := func() Config {
		return Config{Population: pop, Disease: hotModel(),
			Days: 8, Seed: 71, InitialInfections: 5, Ranks: 6}
	}
	configs := []struct {
		name string
		cfg  func() Config
	}{
		{"agg64", func() Config {
			c := base()
			c.AggBufferSize = 64
			return c
		}},
		{"agg0-topo2x2", func() Config {
			c := base()
			c.Ranks = 8
			return c
		}},
		{"route2d-charefactor2-9pe", func() Config {
			c := base()
			c.Ranks = 9
			c.AggBufferSize = 8
			c.Route2D = true
			c.ChareFactor = 2
			return c
		}},
		{"route2d-qd-topo4x3-144pe", func() Config {
			c := base()
			c.Ranks = 144
			c.AggBufferSize = 16
			c.Route2D = true
			c.SyncMode = charm.QuiescenceDetection
			return c
		}},
		{"kernel-auto", func() Config {
			c := base()
			c.AggBufferSize = 64
			c.Kernel = KernelAuto
			return c
		}},
		{"mixing0.3", func() Config {
			c := base()
			c.AggBufferSize = 64
			c.Mixing = 0.3
			return c
		}},
		// The scenario vaccinates 918 persons on day 7 of 8: pins the campaign's draws
		// and their place in the day on the dense kernel.
		{"dense-vaccination-3pe", func() Config {
			sc, err := interventions.Parse(mustRead(t, "../../scenarios/pandemic-response.txt"))
			if err != nil {
				t.Fatal(err)
			}
			c := base()
			c.Ranks = 3
			c.AggBufferSize = 64
			c.Scenario = sc
			return c
		}},
		// Days 1-7 run the Gillespie path (prevalence stays under the raised
		// threshold's exit band), day 8 the active stepper: pins the order
		// the event kernel sums its hazards in, which decides its trajectory.
		{"kernel-event", func() Config {
			c := base()
			c.AggBufferSize = 64
			c.Kernel = KernelEvent
			c.KernelThreshold = 0.05
			return c
		}},
		// Active days on a split population with mixing, 2D routing, small
		// aggregation buffers and two managers per rank: mixing replicas,
		// relayed envelopes and partly filled buffers in one run.
		{"auto-mixing-route2d-cf2-9pe", func() Config {
			split, _, err := splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: 2048})
			if err != nil {
				t.Fatal(err)
			}
			c := base()
			c.Population = split
			c.Ranks = 9
			c.AggBufferSize = 8
			c.Route2D = true
			c.ChareFactor = 2
			c.Kernel = KernelAuto
			c.Mixing = 0.3
			return c
		}},
	}

	raw, err := os.ReadFile("testdata/phasestats.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		want[name] = rest
	}
	if len(want) != len(configs) {
		t.Fatalf("golden file has %d entries, want %d", len(want), len(configs))
	}
	for _, c := range configs {
		js, err := json.Marshal(run(t, c.cfg()))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x %d", sha256.Sum256(js), len(js))
		if got != want[c.name] {
			t.Errorf("PhaseStats drifted:\n got  %s %s\n want %s %s", c.name, got, c.name, want[c.name])
		}
	}
}
