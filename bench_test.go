// Engine benchmarks: the day loop, the placement build, one machine-model
// pricing call, the sweep cache, and the ablations that run the real
// runtime, partitioner or splitter. Each iteration runs one fixed
// instance. CI runs every one of them once:
//
//	go test -run '^$' -bench . -benchtime 1x .
//
// The paper's tables and figures — including the modelled comparisons of
// aggregation buffer sizes, SMP processes per node, torus mapping and
// synchronization protocol — have one driver, `episim figures`
// (`go run ./cmd/episim figures -list` is the index, `-run all`
// regenerates them).
package episim_test

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

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
// Iterations after the first reuse the plan the first built of the placement
// (core.Plan), as the bench's repeated units do; BenchmarkNewPlan times it.
// Two more sequential runs time the location-days that are not full: isolate
// keeps the symptomatic home from day 0, so interventions drop visits every
// day, and mixing (Mixing 0.3) sends split locations replicas of their
// fragments' infectious visitors.
func BenchmarkSimDense(b *testing.B) {
	const seed = 7
	pop := episim.Generate("sim-dense", 20000, 5000, seed)
	pl, err := episim.BuildPlacement(pop, episim.PlacementOptions{
		Strategy: episim.GP, SplitLoc: true, Ranks: 16, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  episim.SimConfig
	}{
		{"sequential", episim.SimConfig{}},
		{"parallel", episim.SimConfig{Parallel: true}},
		{"isolate", episim.SimConfig{Scenario: "when day >= 0 { isolate symptomatic for 10 }"}},
		{"mixing", episim.SimConfig{Mixing: 0.3}},
	} {
		cfg := c.cfg
		cfg.Days, cfg.Seed, cfg.InitialInfections, cfg.AggBufferSize = 10, seed, 1000, 64
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := episim.Run(pl, cfg)
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
// from. Iterations after the first reuse the placement's plan, as in
// BenchmarkSimDense.
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

// BenchmarkNewPlan is the cold build BenchmarkSimDense and BenchmarkSimSparse
// time only in their first iteration, at each one's placement: core.NewPlan,
// then one engine's first dense day, which builds the plan's visit index
// and static schedule.
func BenchmarkNewPlan(b *testing.B) {
	for _, c := range []struct {
		name              string
		people, locations int
		opt               episim.PlacementOptions
	}{
		{"sim-dense", 20000, 5000, episim.PlacementOptions{Strategy: episim.GP, SplitLoc: true, Ranks: 16, Seed: 7}},
		{"sim-sparse", 50000, 12500, episim.PlacementOptions{Strategy: episim.RR, Ranks: 16, Seed: 7}},
	} {
		b.Run(c.name, func(b *testing.B) {
			pl, err := episim.BuildPlacement(episim.Generate(c.name, c.people, c.locations, 7), c.opt)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.Config{Population: pl.Pop, Days: 1, Seed: 7, Ranks: pl.Ranks,
				PersonRank: pl.PersonRank, LocationRank: pl.LocationRank, AggBufferSize: 64}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := core.NewPlan(cfg)
				if err != nil {
					b.Fatal(err)
				}
				e, err := plan.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				e.RunDay(1)
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

// BenchmarkSweepWorkers is the sweep executor's parallel scaling: one warm
// 20k-person GP-splitLoc×16 placement, built into a shared cache before any
// timer starts, and one cell of 16 replicates × 10 days with 200 index
// cases, swept at 1, 2, … GOMAXPROCS workers. Each sub-benchmark reports
// cells/s and sims/s, and its parallel efficiency: its rate over w times
// the 1-worker rate, which only a run that includes workers=1 measures.
func BenchmarkSweepWorkers(b *testing.B) {
	spec := func(workers int) *episim.SweepSpec {
		return &episim.SweepSpec{
			Populations:       []episim.SweepPopulation{{Name: "sweep-workers", People: 20000, Locations: 5000}},
			Placements:        []episim.SweepPlacement{{Strategy: "GP", SplitLoc: true, Ranks: 16}},
			Replicates:        16,
			Days:              10,
			Seed:              7,
			InitialInfections: 200,
			Workers:           workers,
		}
	}
	ctx := context.Background()
	opts := &episim.SweepOptions{Cache: episim.NewSweepCache(0)}
	if _, err := episim.WarmSweep(ctx, spec(1), opts); err != nil {
		b.Fatal(err)
	}
	var rate1 float64 // cells/s at one worker
	for w := 1; w <= runtime.GOMAXPROCS(0); w++ {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			var cells, sims int
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := episim.RunSweepContext(ctx, spec(w), opts)
				if err != nil {
					b.Fatal(err)
				}
				for key, n := range res.PlacementBuilds {
					if n != 0 {
						b.Fatalf("the warm sweep built placement %s %d times", key, n)
					}
				}
				cells, sims = cells+len(res.Cells), sims+res.Simulations
			}
			elapsed := time.Since(start).Seconds()
			rate := float64(cells) / elapsed
			if w == 1 {
				rate1 = rate
			}
			b.ReportMetric(rate, "cells/s")
			b.ReportMetric(float64(sims)/elapsed, "sims/s")
			if rate1 > 0 {
				b.ReportMetric(rate/(float64(w)*rate1), "efficiency")
			}
		})
	}
}
