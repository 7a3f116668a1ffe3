package partition_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	episim "repro"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/splitloc"
	"repro/internal/xrand"
)

// TestMultilevelGolden pins the placements themselves: the SHA-256 and
// length of Multilevel(...).Assign (little-endian int32) for a table of
// inputs that reaches every branch of the build — one and two constraints,
// even, odd and deep k, a graph whose matching stalls, isolated vertices,
// and the person–location graph plain and after splitLoc. A change that
// means to keep placements must leave testdata/multilevel.golden alone; one
// that means to move them replaces the lines this test prints on failure by
// hand (there is no -update flag on purpose).
func TestMultilevelGolden(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
		ks   []int
	}
	inputs := []input{
		{"random-c1", partition.RandomGraph(1, 3000, 12000, 4), []int{2, 6, 7, 64}},
		{"random-c2", twoConstraintGraph(11, 3000, 12000), []int{2, 6, 7, 64}},
		{"community", partition.CommunityGraph(4, 150, 5), []int{4}},
		{"disconnected", disconnectedGraph(), []int{2, 5}},
		{"star", starGraph(400), []int{2, 4}},
	}
	pop := episim.Generate("golden", 2000, 500, 3)
	inputs = append(inputs, input{"bipartite", episim.BuildBipartiteGraph(pop), []int{16}})
	split, st, err := splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: 16384})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSplit == 0 {
		t.Fatal("splitLoc split nothing: the split row would repeat the plain one")
	}
	inputs = append(inputs, input{"bipartite-split", episim.BuildBipartiteGraph(split), []int{16}})

	raw, err := os.ReadFile("testdata/multilevel.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		want[name] = rest
	}
	rows := 0
	for _, in := range inputs {
		for _, k := range in.ks {
			for _, seed := range []uint64{7, 42} {
				rows++
				name := fmt.Sprintf("%s/k%d/seed%d", in.name, k, seed)
				p := partition.Multilevel(in.g, k, partition.Options{Seed: seed})
				buf := make([]byte, 0, 4*len(p.Assign))
				for _, a := range p.Assign {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(a))
				}
				got := fmt.Sprintf("%x %d", sha256.Sum256(buf), len(buf))
				if got != want[name] {
					t.Errorf("placement moved:\n got  %s %s\n want %s %s", name, got, name, want[name])
				}
			}
		}
	}
	if len(want) != rows {
		t.Fatalf("golden file has %d entries, want %d", len(want), rows)
	}
}

// twoConstraintGraph is a random graph whose even vertices carry constraint
// 0 and odd vertices constraint 1, the way persons and locations do.
func twoConstraintGraph(seed uint64, n, m int) *graph.Graph {
	s := xrand.NewStream(seed)
	b := graph.NewBuilder(n, 2)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, v%2, int64(1+s.Intn(10)))
	}
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v, 1)
	}
	for i := 0; i < m; i++ {
		b.AddEdge(s.Intn(n), s.Intn(n), int64(1+s.Intn(3)))
	}
	return b.Build()
}

// disconnectedGraph is five random components of 200 vertices plus 40
// isolated vertices: greedy growing exhausts its frontier and refinement
// meets degree-zero vertices.
func disconnectedGraph() *graph.Graph {
	const comps, size, isolated = 5, 200, 40
	s := xrand.NewStream(5)
	b := graph.NewBuilder(comps*size+isolated, 1)
	for v := 0; v < comps*size+isolated; v++ {
		b.SetVertexWeight(v, 0, int64(1+s.Intn(3)))
	}
	for c := 0; c < comps; c++ {
		base := c * size
		for v := 1; v < size; v++ {
			b.AddEdge(base+v-1, base+v, 1)
		}
		for i := 0; i < 3*size; i++ {
			b.AddEdge(base+s.Intn(size), base+s.Intn(size), int64(1+s.Intn(3)))
		}
	}
	return b.Build()
}

// starGraph has one hub and the given number of spokes: heavy-edge matching
// pairs the hub with one spoke and nothing else, so bisect takes its
// matching-stalled break and bisects the uncoarsened graph.
func starGraph(spokes int) *graph.Graph {
	b := graph.NewBuilder(spokes+1, 1)
	b.SetVertexWeight(0, 0, 4)
	for v := 1; v <= spokes; v++ {
		b.SetVertexWeight(v, 0, 1)
		b.AddEdge(0, v, int64(1+v%3))
	}
	return b.Build()
}
