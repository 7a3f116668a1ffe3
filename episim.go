// Package episim is the public API of the EpiSimdemics reproduction: a
// parallel agent-based contagion simulator over person–location social
// contact networks, implementing the system and the optimizations of
//
//	Yeom et al., "Overcoming the Scalability Challenges of Epidemic
//	Simulations on Blue Waters", IPDPS 2014.
//
// The typical flow is:
//
//	pop, _ := episim.GenerateState("IA", 1000, 42)       // Table I preset at 1:1000
//	pl, _ := episim.BuildPlacement(pop, episim.PlacementOptions{
//	        Strategy: episim.GP, SplitLoc: true, Ranks: 64})
//	res, _ := episim.Run(pl, episim.SimConfig{Days: 120, Seed: 42})
//	fmt.Println(res.AttackRate)
//
// and, for scalability studies on the Blue Waters machine model:
//
//	cost := episim.ModelDayTime(pl, episim.DefaultPerfOptions())
//	fmt.Println(cost.Total) // simulated seconds per simulated day
package episim

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/disease"
	"repro/internal/graph"
	"repro/internal/interventions"
	"repro/internal/loadmodel"
	"repro/internal/partition"
	"repro/internal/splitloc"
	"repro/internal/synthpop"
)

// Re-exported population types.
type (
	// Population is a synthetic person–location visit network.
	Population = synthpop.Population
	// Result is a completed simulation.
	Result = core.Result
	// DayReport is one simulated day of a Result.
	DayReport = core.DayReport
)

// Strategy selects the data distribution method of Section III.
type Strategy int

// Distribution strategies (the paper's labels).
const (
	// RR assigns persons and locations to ranks round-robin.
	RR Strategy = iota
	// GP partitions the person–location graph with the multilevel
	// multi-constraint partitioner under the workload model.
	GP
)

func (s Strategy) String() string {
	switch s {
	case RR:
		return "RR"
	case GP:
		return "GP"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// GenerateState builds the Table I preset for a state name ("US", "CA",
// ..., or any of the 48 contiguous states + DC) at scale divisor 1:scale.
func GenerateState(name string, scale int, seed uint64) (*Population, error) {
	return synthpop.GenerateState(name, scale, seed)
}

// Generate builds a custom synthetic population.
func Generate(name string, people, locations int, seed uint64) *Population {
	return synthpop.Generate(synthpop.DefaultConfig(name, people, locations, seed))
}

// PlacementOptions selects how data is distributed over ranks.
type PlacementOptions struct {
	Strategy Strategy
	// SplitLoc applies the heavy-location splitting preprocessing of
	// Section III-C before distribution.
	SplitLoc bool
	Ranks    int
	Seed     uint64
	// SplitMaxPartitions drives the automatic split threshold (defaults to
	// max(Ranks, 16384)); see splitloc.Options.
	SplitMaxPartitions int
	// Imbalance is the partitioner's balance tolerance ε (default 0.10).
	Imbalance float64
	// EvaluateQuality computes partition quality metrics (edge cut, load
	// balance) even for RR; GP always computes them.
	EvaluateQuality bool
}

// Label returns the paper's label for the option combination: RR, GP,
// RR-splitLoc or GP-splitLoc.
func (o PlacementOptions) Label() string {
	l := o.Strategy.String()
	if o.SplitLoc {
		l += "-splitLoc"
	}
	return l
}

// Placement is a data distribution ready to simulate or to price on the
// machine model. Its first run builds the engines' plan of it (core.Plan:
// the static schedule, manager maps and visit index), which every later
// run shares, including concurrent ones and a sweep's replicates; the plan
// is never serialized. A placement must not be modified once it has run.
type Placement struct {
	// Pop is the population actually simulated (the split population when
	// SplitLoc was requested).
	Pop          *Population
	PersonRank   []int32
	LocationRank []int32
	Ranks        int
	Label        string
	// SplitStats reports the preprocessing (nil when SplitLoc was off).
	SplitStats *splitloc.Stats
	// Quality holds partition metrics over the bipartite graph (nil unless
	// computed). Constraint 0 is the person phase, constraint 1 the
	// location phase.
	Quality *partition.Quality

	planOnce sync.Once
	plan     *core.Plan
	planErr  error
}

// BuildBipartiteGraph constructs the weighted bipartite person–location
// graph of Section III-B: person vertices carry the person-phase load
// (message count), location vertices the location-phase load (static load
// model of Section III-A), and edges carry visit multiplicity. The edge
// weights sum to the population's visit count, which its int32 visit
// offsets bound, so graph's int32 weights hold them exactly.
func BuildBipartiteGraph(pop *Population) *graph.Graph {
	nP, nL := pop.NumPersons(), pop.NumLocations()
	vw := make([]int64, 2*(nP+nL))
	locLoads := loadmodel.Paper().VisitLoads(pop.VisitCountsPerLocation())
	q := loadmodel.NewQuantizer(locLoads, 64)
	for l := 0; l < nL; l++ {
		vw[2*(nP+l)+1] = q.Quantize(locLoads[l])
	}
	// Persons are the first nP vertices, so their rows are a prefix of the
	// CSR arrays and can be appended person by person: a person's visits
	// sorted by location, each run of one location an edge weighing the
	// run's length. xadj[nP+l+1] meanwhile counts location l's distinct
	// visitors.
	xadj := make([]int32, nP+nL+1)
	adj := make([]int32, 0, 2*pop.NumVisits())
	ew := make([]int32, 0, 2*pop.NumVisits())
	var locs []int32
	for p := int32(0); p < int32(nP); p++ {
		visits := pop.PersonVisits(p)
		vw[2*p] = int64(loadmodel.PersonLoad(len(visits)))
		locs = locs[:0]
		for _, v := range visits {
			locs = append(locs, v.Loc)
		}
		slices.Sort(locs)
		for i, l := range locs {
			if i > 0 && locs[i-1] == l {
				ew[len(ew)-1]++
				continue
			}
			adj = append(adj, int32(nP)+l)
			ew = append(ew, 1)
			xadj[nP+int(l)+1]++
		}
		xadj[p+1] = int32(len(adj))
	}
	// Location rows are the transpose of the person rows; filled while the
	// person ascends, each comes out sorted by person.
	for l := 0; l < nL; l++ {
		xadj[nP+l+1] += xadj[nP+l]
	}
	cursor := append([]int32(nil), xadj[nP:nP+nL]...)
	mP := len(adj)
	adj, ew = adj[:2*mP], ew[:2*mP]
	for p := 0; p < nP; p++ {
		for i := xadj[p]; i < xadj[p+1]; i++ {
			l := adj[i] - int32(nP)
			c := cursor[l]
			adj[c], ew[c] = int32(p), ew[i]
			cursor[l] = c + 1
		}
	}
	return graph.NewFromCSR(2, xadj, adj, ew, vw)
}

// BuildPlacement distributes a population over ranks per the options.
func BuildPlacement(pop *Population, opt PlacementOptions) (*Placement, error) {
	if opt.Ranks < 1 {
		opt.Ranks = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	pl := &Placement{Pop: pop, Ranks: opt.Ranks, Label: opt.Label()}
	if opt.SplitLoc {
		maxParts := opt.SplitMaxPartitions
		if maxParts <= 0 {
			maxParts = 16384
		}
		if maxParts < opt.Ranks {
			maxParts = opt.Ranks
		}
		split, st, err := splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: maxParts})
		if err != nil {
			return nil, fmt.Errorf("episim: %w", err)
		}
		pl.Pop = split
		pl.SplitStats = &st
	}
	nP, nL := pl.Pop.NumPersons(), pl.Pop.NumLocations()

	switch opt.Strategy {
	case RR:
		pr := partition.RoundRobin(nP, opt.Ranks)
		lr := partition.RoundRobin(nL, opt.Ranks)
		pl.PersonRank = pr.Assign
		pl.LocationRank = lr.Assign
		if opt.EvaluateQuality {
			g := BuildBipartiteGraph(pl.Pop)
			assign := make([]int32, nP+nL)
			copy(assign, pl.PersonRank)
			copy(assign[nP:], pl.LocationRank)
			q := partition.Evaluate(g, &partition.Partitioning{K: opt.Ranks, Assign: assign})
			pl.Quality = &q
		}
	case GP:
		g := BuildBipartiteGraph(pl.Pop)
		p := partition.Multilevel(g, opt.Ranks, partition.Options{
			Imbalance: opt.Imbalance,
			Seed:      opt.Seed,
		})
		pl.PersonRank = p.Assign[:nP]
		pl.LocationRank = p.Assign[nP : nP+nL]
		q := partition.Evaluate(g, p)
		pl.Quality = &q
	default:
		return nil, fmt.Errorf("episim: unknown strategy %v", opt.Strategy)
	}
	return pl, nil
}

// SimConfig configures a simulation run on a placement.
type SimConfig struct {
	Days              int
	Seed              uint64
	InitialInfections int
	// Model is the PTTS disease model; nil uses disease.Default().
	Model *disease.Model
	// Scenario is an intervention DSL program (empty = none).
	Scenario string
	// Parallel runs one goroutine per rank instead of the deterministic
	// sequential scheduler. Each phase ends as soon as its last message is
	// processed (exact completion detection, no polling), and the epidemic
	// is the sequential scheduler's; only wire-message counts vary.
	Parallel bool
	// AggBufferSize enables message aggregation when > 0.
	AggBufferSize int
	// Route2D enables TRAM-style topological routing of aggregated
	// messages (useful at large rank counts where per-destination buffers
	// underfill); Run rejects it when AggBufferSize is 0.
	Route2D bool
	// Mixing enables inter-sublocation mixing (the paper's future-work
	// model): cross-room interaction within a location at this
	// transmission scale. On split populations, infectious visitors are
	// automatically replicated across fragments (Figure 6(b)).
	Mixing float64
	// Kernel selects the per-day simulation kernel: "" or "dense" (the
	// historical day-stepped path), "auto" (active-set stepping,
	// byte-identical to dense) or "event" (Gillespie path below the
	// prevalence threshold, statistically equivalent). See core.Config.
	Kernel string
	// KernelThreshold is the prevalence fraction gating the "event"
	// kernel (0 = default, see core.Config.KernelThreshold).
	KernelThreshold float64
}

// Run executes a simulation over the placement.
func Run(pl *Placement, cfg SimConfig) (*Result, error) {
	eng, err := newSimEngine(pl, cfg)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// newSimEngine builds a configured engine on the placement's plan, built by
// the first call, without running it — the seam the fork-mode sweep uses to
// run a prefix (core.RunPrefix) or resume a branch (core.Restore) instead of
// a whole run.
func newSimEngine(pl *Placement, cfg SimConfig) (*core.Engine, error) {
	var scn *interventions.Scenario
	if strings.TrimSpace(cfg.Scenario) != "" {
		var err error
		scn, err = interventions.Parse(cfg.Scenario)
		if err != nil {
			return nil, fmt.Errorf("episim: scenario: %w", err)
		}
	}
	pl.planOnce.Do(func() {
		pl.plan, pl.planErr = core.NewPlan(core.Config{Population: pl.Pop, Ranks: pl.Ranks,
			PersonRank: pl.PersonRank, LocationRank: pl.LocationRank})
	})
	if pl.planErr != nil {
		return nil, pl.planErr
	}
	return pl.plan.New(core.Config{
		Population:        pl.Pop,
		Disease:           cfg.Model,
		Scenario:          scn,
		Days:              cfg.Days,
		Seed:              cfg.Seed,
		InitialInfections: cfg.InitialInfections,
		Ranks:             pl.Ranks,
		Parallel:          cfg.Parallel,
		AggBufferSize:     cfg.AggBufferSize,
		Route2D:           cfg.Route2D,
		PersonRank:        pl.PersonRank,
		LocationRank:      pl.LocationRank,
		Mixing:            cfg.Mixing,
		Kernel:            cfg.Kernel,
		KernelThreshold:   cfg.KernelThreshold,
	})
}
