// Benchmarks regenerating the paper's tables and figures (one benchmark
// per artifact; `experiments -list` is the index), plus ablation
// benchmarks for the design choices the reproduction makes. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks run the experiments in Quick mode at reduced scale so a full
// sweep stays in CI-friendly time; `cmd/experiments -run all` regenerates
// the full artifacts.
package episim_test

import (
	"io"
	"testing"

	episim "repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/splitloc"
)

// benchOpts are the reduced-scale options used by artifact benchmarks.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 4000, AnalysisScale: 1500, Seed: 7, Quick: true}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	e, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact. ---

func BenchmarkTable1PopulationGen(b *testing.B)        { runExperiment(b, "table1") }
func BenchmarkTable2SplitLoc(b *testing.B)             { runExperiment(b, "table2") }
func BenchmarkFig2Partitioning(b *testing.B)           { runExperiment(b, "fig2") }
func BenchmarkFig3LoadModel(b *testing.B)              { runExperiment(b, "fig3") }
func BenchmarkFig4SpeedupBound(b *testing.B)           { runExperiment(b, "fig4") }
func BenchmarkFig5Scalability(b *testing.B)            { runExperiment(b, "fig5") }
func BenchmarkFig6SplitStrategies(b *testing.B)        { runExperiment(b, "fig6") }
func BenchmarkFig7PostSplitDistributions(b *testing.B) { runExperiment(b, "fig7") }
func BenchmarkFig8SpeedupBoundSplit(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkFig9to11CommAblation(b *testing.B)       { runExperiment(b, "fig9_11") }
func BenchmarkFig12OptimizationGap(b *testing.B)       { runExperiment(b, "fig12") }
func BenchmarkFig13StrongScaling(b *testing.B)         { runExperiment(b, "fig13") }
func BenchmarkFig14EdgeCutBalance(b *testing.B)        { runExperiment(b, "fig14") }
func BenchmarkHeadlineSpeedup(b *testing.B)            { runExperiment(b, "headline") }

// --- End-to-end engine benchmarks. ---

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

// --- Ablation benchmarks (README "Tests and benchmarks"). ---

// BenchmarkAblationAggBufferSize sweeps the aggregation buffer: reports
// modeled time/day as the custom metric for each size.
func BenchmarkAblationAggBufferSize(b *testing.B) {
	pl := benchPlacement(b, episim.RR, false, 256)
	for _, size := range []int{0, 8, 32, 64, 256, 2048} {
		b.Run(byteSizeName(size), func(b *testing.B) {
			opt := episim.DefaultPerfOptions()
			opt.Aggregation = size
			var total float64
			for i := 0; i < b.N; i++ {
				total += episim.ModelDayTime(pl, opt).Total
			}
			b.ReportMetric(total/float64(b.N)*1e3, "model-ms/day")
		})
	}
}

func byteSizeName(n int) string {
	if n == 0 {
		return "off"
	}
	return "buf" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationSMPProcsPerNode sweeps the SMP process count k of
// Section IV-A: fewer processes = fewer comm threads but more offloading
// contention; more = more cores lost.
func BenchmarkAblationSMPProcsPerNode(b *testing.B) {
	pl := benchPlacement(b, episim.RR, false, 256)
	for _, k := range []int{1, 2, 4, 8} {
		b.Run("k"+itoa(k), func(b *testing.B) {
			opt := episim.DefaultPerfOptions()
			opt.Machine.ProcsPerNode = k
			var total float64
			for i := 0; i < b.N; i++ {
				total += episim.ModelDayTime(pl, opt).Total
			}
			b.ReportMetric(total/float64(b.N)*1e3, "model-ms/day")
		})
	}
}

// BenchmarkAblationPartitioner compares the distribution strategies'
// build cost and quality at fixed ranks.
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
			partition.Multilevel(g, 64, partition.Options{Seed: uint64(i + 1)})
		}
	})
}

// BenchmarkAblationSplitThreshold sweeps the splitLoc MaxPartitions knob
// (which drives the split threshold): reports resulting l_max bound.
func BenchmarkAblationSplitThreshold(b *testing.B) {
	pop := episim.Generate("bench", 20000, 5000, 1)
	for _, maxParts := range []int{256, 4096, 65536} {
		b.Run("maxparts"+itoa(maxParts), func(b *testing.B) {
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

// BenchmarkAblationTorusMapping compares topology-aware (contiguous) vs
// oblivious (scattered) rank→node mapping on the Gemini torus model.
func BenchmarkAblationTorusMapping(b *testing.B) {
	pl := benchPlacement(b, episim.GP, true, 512)
	for _, m := range []episim.RankMapping{episim.MapContiguous, episim.MapScattered} {
		name := "contiguous"
		if m == episim.MapScattered {
			name = "scattered"
		}
		b.Run(name, func(b *testing.B) {
			opt := episim.DefaultPerfOptions()
			opt.Mapping = m
			var total float64
			for i := 0; i < b.N; i++ {
				total += episim.ModelDayTime(pl, opt).Total
			}
			b.ReportMetric(total/float64(b.N)*1e3, "model-ms/day")
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

// BenchmarkAblationSyncMode compares CD vs QD sync pricing across scales.
func BenchmarkAblationSyncMode(b *testing.B) {
	cfg := machine.BlueWatersXE6()
	for _, pes := range []int{1024, 65536, 360448} {
		b.Run("pes"+itoa(pes), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc += cfg.SyncCost(pes, machine.QuiescenceDetection) - cfg.SyncCost(pes, machine.CompletionDetection)
			}
			b.ReportMetric(acc/float64(b.N)*1e6, "qd-cd-us")
		})
	}
}
