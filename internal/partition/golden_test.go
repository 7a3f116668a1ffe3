package partition_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"slices"
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
// and the person–location graph plain and after splitLoc, at a small size
// and at the bench's place-cold size. A change that means to keep
// placements must leave testdata/multilevel.golden alone; one that means to
// move them replaces the lines this test prints on failure by hand (there
// is no -update flag on purpose).
func TestMultilevelGolden(t *testing.T) {
	inputs := goldenInputs(t)
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

// TestMultilevelSameOnEveryCore holds the bisections that run on other
// goroutines to the placement of one goroutine: every golden input (two of
// them at place-cold's size) at GOMAXPROCS 1, 2 and 4, each with the busy
// count pre-filled, so that nothing spawns, and empty, must assign every
// vertex alike. At 2 and 4 the place-cold-sized build must also be seen
// running more than one bisection at once, or the comparison proves nothing.
func TestMultilevelSameOnEveryCore(t *testing.T) {
	inputs := goldenInputs(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range inputs {
		for _, k := range in.ks {
			var want []int32
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for _, filled := range []bool{true, false} {
					if filled {
						partition.Busy.Add(int32(procs))
					}
					var got []int32
					build := func() { got = partition.Multilevel(in.g, k, partition.Options{Seed: 7}).Assign }
					if !filled && procs > 1 && in.name == "bipartite-large-split" {
						if peak := busyPeak(build); peak < 2 {
							t.Errorf("%s/k%d at GOMAXPROCS %d: at most %d bisection ran at once", in.name, k, procs, peak)
						}
					} else {
						build()
					}
					if filled {
						partition.Busy.Add(-int32(procs))
					}
					if want == nil {
						want = got
					} else if !slices.Equal(got, want) {
						t.Errorf("%s/k%d at GOMAXPROCS %d, busy count filled %v: placement differs from GOMAXPROCS 1",
							in.name, k, procs, filled)
					}
				}
			}
		}
	}
}

// busyPeak runs f while sampling the busy count and returns the highest
// count it saw.
func busyPeak(f func()) int32 {
	stop, peak := make(chan struct{}), make(chan int32)
	go func() {
		var most int32
		for {
			select {
			case <-stop:
				peak <- most
				return
			default:
			}
			most = max(most, partition.Busy.Load())
			runtime.Gosched()
		}
	}()
	f()
	close(stop)
	return <-peak
}

type goldenInput struct {
	name string
	g    *graph.Graph
	ks   []int
}

// goldenInputs are the graphs of testdata/multilevel.golden.
func goldenInputs(t *testing.T) []goldenInput {
	inputs := []goldenInput{
		{"random-c1", partition.RandomGraph(1, 3000, 12000, 4), []int{2, 6, 7, 64}},
		{"random-c2", twoConstraintGraph(11, 3000, 12000), []int{2, 6, 7, 64}},
		{"community", partition.CommunityGraph(4, 150, 5), []int{4}},
		{"disconnected", disconnectedGraph(), []int{2, 5}},
		{"star", starGraph(400), []int{2, 4}},
	}
	pop := episim.Generate("golden", 2000, 500, 3)
	inputs = append(inputs, goldenInput{"bipartite", episim.BuildBipartiteGraph(pop), []int{16}})
	split, st, err := splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: 16384})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSplit == 0 {
		t.Fatal("splitLoc split nothing: the split row would repeat the plain one")
	}
	inputs = append(inputs, goldenInput{"bipartite-split", episim.BuildBipartiteGraph(split), []int{16}})
	// The bench's place-cold shape: many edge-heavy coarsening levels per
	// bisection, which the 2,000-person rows never reach.
	large := episim.Generate("golden", 30000, 7500, 3)
	largeSplit, _, err := splitloc.SplitPopulation(large, splitloc.Options{MaxPartitions: 16384})
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs,
		goldenInput{"bipartite-large", episim.BuildBipartiteGraph(large), []int{64}},
		goldenInput{"bipartite-large-split", episim.BuildBipartiteGraph(largeSplit), []int{64}})
	return inputs
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
		b.AddEdge(s.Intn(n), s.Intn(n), int32(1+s.Intn(3)))
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
			b.AddEdge(base+s.Intn(size), base+s.Intn(size), int32(1+s.Intn(3)))
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
		b.AddEdge(0, v, int32(1+v%3))
	}
	return b.Build()
}

// BenchmarkMultilevelPlaceCold partitions the bench's place-cold
// GP-splitLoc graph (30,000 persons, 7,500 locations, k = 64): -benchmem
// reads the bytes one cold placement's partitioning allocates, and -cpu 1,2
// times it with and without a second goroutine.
func BenchmarkMultilevelPlaceCold(b *testing.B) {
	pop := episim.Generate("bench", 30000, 7500, 1)
	split, _, err := splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: 16384})
	if err != nil {
		b.Fatal(err)
	}
	g := episim.BuildBipartiteGraph(split)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.Multilevel(g, 64, partition.Options{Seed: 1})
	}
}
