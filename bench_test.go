// Engine benchmarks: the day loop, the placement build, one machine-model
// pricing call, the sweep cache, and the ablations that run the real
// runtime, partitioner or splitter. Each iteration runs one fixed
// instance. CI runs every one of them once:
//
//	go test -run '^$' -bench . -benchtime 1x .
//
// The paper's tables and figures — including the modelled comparisons of
// aggregation buffer sizes, SMP processes per node, torus mapping and
// synchronization protocol — have one driver, cmd/experiments
// (`go run ./cmd/experiments -list` is the index, `-run all` regenerates
// them).
package episim_test

import (
	"strconv"
	"testing"

	episim "repro"
	"repro/internal/core"
	"repro/internal/disease"
	"repro/internal/partition"
	"repro/internal/splitloc"
)

// benchPlacement builds a mid-size placement once per benchmark.
func benchPlacement(b *testing.B, strat episim.Strategy, split bool, ranks int) *episim.Placement {
	b.Helper()
	pop := episim.Generate("bench", 20000, 5000, 1)
	pl, err := episim.BuildPlacement(pop, episim.PlacementOptions{
		Strategy: strat, SplitLoc: split, Ranks: ranks, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

func BenchmarkSimulate30DaysRR(b *testing.B) {
	pl := benchPlacement(b, episim.RR, false, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := episim.Run(pl, episim.SimConfig{Days: 30, Seed: 1, InitialInfections: 20, AggBufferSize: 64})
		if err != nil || res.TotalInfections == 0 {
			b.Fatal("simulation failed")
		}
	}
}

func BenchmarkSimulate30DaysGPSplit(b *testing.B) {
	pl := benchPlacement(b, episim.GP, true, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := episim.Run(pl, episim.SimConfig{Days: 30, Seed: 1, InitialInfections: 20, AggBufferSize: 64})
		if err != nil || res.TotalInfections == 0 {
			b.Fatal("simulation failed")
		}
	}
}

func BenchmarkSimulateParallel(b *testing.B) {
	pl := benchPlacement(b, episim.GP, true, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := episim.Run(pl, episim.SimConfig{Days: 10, Seed: 1, InitialInfections: 20,
			AggBufferSize: 64, Parallel: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimDense is the bench's sim-dense unit without the harness
// around it: 20k persons / 5k locations placed GP-splitLoc×16, 1,000 index
// cases, 10 days, generated from the bench's default seed — so -cpuprofile
// and -memprofile on it profile the day loop the sim-dense numbers come from.
func BenchmarkSimDense(b *testing.B) {
	const seed = 7
	pop := episim.Generate("sim-dense", 20000, 5000, seed)
	pl, err := episim.BuildPlacement(pop, episim.PlacementOptions{
		Strategy: episim.GP, SplitLoc: true, Ranks: 16, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := episim.Run(pl, episim.SimConfig{Days: 10, Seed: seed, InitialInfections: 1000,
					AggBufferSize: 64, Parallel: parallel})
				if err != nil || res.TotalInfections == 0 {
					b.Fatal("simulation failed")
				}
			}
		})
	}
}

// BenchmarkSimSparse is the bench's sim-sparse unit without the harness
// around it: 50k persons / 12.5k locations placed RR×16, 250 index cases,
// the default model at half its transmissibility, 12 days, generated from
// the bench's default seed, on the auto (active-set) and event kernels —
// so -cpuprofile on it profiles the day loop the sim-sparse numbers come
// from.
func BenchmarkSimSparse(b *testing.B) {
	const seed = 7
	pop := episim.Generate("sim-sparse", 50000, 12500, seed)
	pl, err := episim.BuildPlacement(pop, episim.PlacementOptions{
		Strategy: episim.RR, Ranks: 16, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	model := disease.Default()
	model.Transmissibility *= 0.5
	for _, kernel := range []string{core.KernelAuto, core.KernelEvent} {
		b.Run(kernel, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := episim.Run(pl, episim.SimConfig{Days: 12, Seed: seed, InitialInfections: 250,
					Model: model, AggBufferSize: 64, Kernel: kernel})
				if err != nil || res.TotalInfections == 0 {
					b.Fatal("simulation failed")
				}
			}
		})
	}
}

// BenchmarkBuildPlacementGP is the bench's place-cold build without the
// cache around it: one 30k-person / 7.5k-location population placed GP×64
// and GP-splitLoc×64, one fixed instance per iteration, so -cpuprofile and
// -memprofile on it profile the workload the cold-path numbers come from.
func BenchmarkBuildPlacementGP(b *testing.B) {
	pop := episim.Generate("bench", 30000, 7500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, split := range []bool{false, true} {
			if _, err := episim.BuildPlacement(pop, episim.PlacementOptions{
				Strategy: episim.GP, SplitLoc: split, Ranks: 64, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkModelDayTime(b *testing.B) {
	pl := benchPlacement(b, episim.GP, true, 256)
	opt := episim.DefaultPerfOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := episim.ModelDayTime(pl, opt); c.Total <= 0 {
			b.Fatal("bad day cost")
		}
	}
}

// --- Ablations that run the real partitioner, splitter and runtime. ---

// BenchmarkAblationPartitioner compares the distribution strategies'
// build cost at fixed ranks on one fixed instance.
func BenchmarkAblationPartitioner(b *testing.B) {
	pop := episim.Generate("bench", 20000, 5000, 1)
	g := episim.BuildBipartiteGraph(pop)
	loads := make([]int64, g.NumVertices())
	for v := range loads {
		loads[v] = g.VertexWeight(v, 0) + g.VertexWeight(v, 1)
	}
	b.Run("RoundRobin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.RoundRobin(g.NumVertices(), 64)
		}
	})
	b.Run("LPT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.LPT(loads, 64)
		}
	})
	b.Run("Multilevel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.Multilevel(g, 64, partition.Options{Seed: 1})
		}
	})
}

// BenchmarkAblationSplitThreshold sweeps the splitLoc MaxPartitions knob
// (which drives the split threshold): reports resulting l_max bound.
func BenchmarkAblationSplitThreshold(b *testing.B) {
	pop := episim.Generate("bench", 20000, 5000, 1)
	for _, maxParts := range []int{256, 4096, 65536} {
		b.Run("maxparts"+strconv.Itoa(maxParts), func(b *testing.B) {
			var frags int
			for i := 0; i < b.N; i++ {
				_, st, err := splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: maxParts})
				if err != nil {
					b.Fatal(err)
				}
				frags = st.NumFragments
			}
			b.ReportMetric(float64(frags), "fragments")
		})
	}
}

// BenchmarkAblationRoute2D compares direct vs TRAM-style 2D-routed
// aggregation in the real runtime at a rank count where buffers underfill.
func BenchmarkAblationRoute2D(b *testing.B) {
	pop := episim.Generate("bench", 20000, 5000, 1)
	for _, route := range []bool{false, true} {
		name := "direct"
		if route {
			name = "route2d"
		}
		b.Run(name, func(b *testing.B) {
			pl, err := episim.BuildPlacement(pop, episim.PlacementOptions{
				Strategy: episim.RR, Ranks: 144, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			var wire int64
			for i := 0; i < b.N; i++ {
				res, err := episim.Run(pl, episim.SimConfig{
					Days: 3, Seed: 1, InitialInfections: 20,
					AggBufferSize: 16, Route2D: route})
				if err != nil {
					b.Fatal(err)
				}
				wire = res.Days[0].PersonPhase.WireMessages
			}
			b.ReportMetric(float64(wire), "wire-msgs/day")
		})
	}
}

// BenchmarkSweepPlacementCache measures the ensemble executor: a
// 2-placement × 2-scenario × 4-replicate sweep where the content-keyed
// cache builds each placement once and shares it across the 8 runs that
// use it. The reported metric is simulations per placement build — the
// sweep subsystem's headline amortization.
func BenchmarkSweepPlacementCache(b *testing.B) {
	spec := func() *episim.SweepSpec {
		return &episim.SweepSpec{
			Populations: []episim.SweepPopulation{{Name: "bench", People: 20000, Locations: 5000}},
			Placements: []episim.SweepPlacement{
				{Strategy: "RR", Ranks: 8},
				{Strategy: "GP", SplitLoc: true, Ranks: 8},
			},
			Scenarios: []episim.SweepScenario{
				{Name: "baseline"},
				{Name: "closure", Text: "when day >= 5 { close school for 14 }"},
			},
			Replicates:        4,
			Days:              10,
			Seed:              1,
			InitialInfections: 20,
			AggBufferSize:     64,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := episim.RunSweep(spec())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PlacementBuilds) != 2 {
			b.Fatalf("placement builds = %d, want 2", len(res.PlacementBuilds))
		}
		b.ReportMetric(float64(res.Simulations)/float64(len(res.PlacementBuilds)), "sims/build")
	}
}
