package episim

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/loadmodel"
	"repro/internal/machine"
)

func smallPop(t testing.TB) *Population {
	t.Helper()
	pop := Generate("facade-test", 4000, 900, 5)
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestGenerateState(t *testing.T) {
	pop, err := GenerateState("WY", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pop.NumPersons() < 1000 {
		t.Fatalf("WY 1:200 too small: %d", pop.NumPersons())
	}
	if _, err := GenerateState("XX", 100, 1); err == nil {
		t.Fatal("unknown state accepted")
	}
}

func TestBuildBipartiteGraph(t *testing.T) {
	pop := smallPop(t)
	g := BuildBipartiteGraph(pop)
	if g.NumVertices() != pop.NumPersons()+pop.NumLocations() {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Constraint 0 totals the person loads (= total visits), constraint 1
	// is positive only on location vertices.
	if g.TotalVertexWeight(0) != int64(pop.NumVisits()) {
		t.Fatalf("person-phase weight %d, want %d", g.TotalVertexWeight(0), pop.NumVisits())
	}
	for p := 0; p < pop.NumPersons(); p++ {
		if g.VertexWeight(p, 1) != 0 {
			t.Fatal("person vertex carries location load")
		}
	}
	if g.TotalVertexWeight(1) == 0 {
		t.Fatal("no location load")
	}
	// Edge weight totals the visit count (each visit adds 1 to its edge).
	if g.TotalEdgeWeight() != int64(pop.NumVisits()) {
		t.Fatalf("edge weight %d, want %d", g.TotalEdgeWeight(), pop.NumVisits())
	}
}

// bipartiteViaBuilder is BuildBipartiteGraph as it was before it wrote CSR
// itself — visit multiplicities in a hash map, every edge through the
// general-purpose builder — and the oracle of the test below.
func bipartiteViaBuilder(pop *Population) *graph.Graph {
	nP, nL := pop.NumPersons(), pop.NumLocations()
	b := graph.NewBuilder(nP+nL, 2)
	locLoads := loadmodel.Paper().VisitLoads(pop.VisitCountsPerLocation())
	q := loadmodel.NewQuantizer(locLoads, 64)
	for l := 0; l < nL; l++ {
		b.SetVertexWeight(nP+l, 1, q.Quantize(locLoads[l]))
	}
	type edgeKey struct{ p, l int32 }
	edges := make(map[edgeKey]int64)
	for p := int32(0); p < int32(nP); p++ {
		visits := pop.PersonVisits(p)
		b.SetVertexWeight(int(p), 0, int64(loadmodel.PersonLoad(len(visits))))
		for _, v := range visits {
			edges[edgeKey{p, v.Loc}]++
		}
	}
	for k, w := range edges {
		b.AddEdge(int(k.p), nP+int(k.l), w)
	}
	return b.Build()
}

func TestBuildBipartiteGraphMatchesBuilder(t *testing.T) {
	pop := smallPop(t)
	got, want := BuildBipartiteGraph(pop), bipartiteViaBuilder(pop)
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// Everyone is at home in the morning and again in the evening, with
	// other visits in between: two visits, one edge of weight 2.
	home := pop.NumPersons() + int(pop.Persons[0].Home)
	if w := got.EdgeWeightBetween(0, home); w != 2 {
		t.Fatalf("person 0 visits home twice: edge weight %d, want 2", w)
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%d vertices / %d edges, want %d / %d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := 0; v < want.NumVertices(); v++ {
		gn, gw := got.Neighbors(v)
		wn, ww := want.Neighbors(v)
		if !slices.Equal(gn, wn) || !slices.Equal(gw, ww) || !slices.Equal(got.VertexWeights(v), want.VertexWeights(v)) {
			t.Fatalf("vertex %d differs from the builder-built graph", v)
		}
	}
}

func TestBuildPlacementRR(t *testing.T) {
	pop := smallPop(t)
	pl, err := BuildPlacement(pop, PlacementOptions{Strategy: RR, Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Label != "RR" {
		t.Fatalf("label %q", pl.Label)
	}
	if pl.PersonRank[9] != 1 || pl.LocationRank[16] != 0 {
		t.Fatal("round robin broken")
	}
	if pl.SplitStats != nil || pl.Quality != nil {
		t.Fatal("RR should not split or evaluate by default")
	}
}

func TestBuildPlacementGP(t *testing.T) {
	pop := smallPop(t)
	pl, err := BuildPlacement(pop, PlacementOptions{Strategy: GP, Ranks: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Quality == nil {
		t.Fatal("GP must report quality")
	}
	// GP must cut fewer edges than RR.
	rr, err := BuildPlacement(pop, PlacementOptions{Strategy: RR, Ranks: 8, EvaluateQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Quality.EdgeCut >= rr.Quality.EdgeCut {
		t.Fatalf("GP cut %d !< RR cut %d", pl.Quality.EdgeCut, rr.Quality.EdgeCut)
	}
}

func TestBuildPlacementSplitLoc(t *testing.T) {
	pop := smallPop(t)
	pl, err := BuildPlacement(pop, PlacementOptions{
		Strategy: GP, SplitLoc: true, Ranks: 8, SplitMaxPartitions: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Label != "GP-splitLoc" {
		t.Fatalf("label %q", pl.Label)
	}
	if pl.SplitStats == nil || pl.SplitStats.NumSplit == 0 {
		t.Fatal("splitLoc did nothing")
	}
	if pl.Pop == pop {
		t.Fatal("split placement must carry the split population")
	}
	if len(pl.LocationRank) != pl.Pop.NumLocations() {
		t.Fatal("location ranks not resized for split population")
	}
}

func TestRunEndToEnd(t *testing.T) {
	pop := smallPop(t)
	pl, err := BuildPlacement(pop, PlacementOptions{Strategy: GP, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pl, SimConfig{Days: 20, Seed: 1, InitialInfections: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 20 {
		t.Fatalf("days = %d", len(res.Days))
	}
	if res.TotalInfections < 10 {
		t.Fatalf("infections = %d", res.TotalInfections)
	}
}

func TestRunWithScenario(t *testing.T) {
	pop := smallPop(t)
	pl, _ := BuildPlacement(pop, PlacementOptions{Strategy: RR, Ranks: 2})
	res, err := Run(pl, SimConfig{
		Days: 10, Seed: 1, InitialInfections: 5,
		Scenario: "when day >= 2 { close school for 5 }",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Days[4].PersonPhase.Messages >= res.Days[0].PersonPhase.Messages {
		t.Fatal("school closure did not reduce visits")
	}
	if _, err := Run(pl, SimConfig{Days: 1, Scenario: "when {"}); err == nil {
		t.Fatal("bad scenario accepted")
	}
}

func TestStrategyInvarianceThroughFacade(t *testing.T) {
	pop := smallPop(t)
	cfgs := []PlacementOptions{
		{Strategy: RR, Ranks: 4},
		{Strategy: GP, Ranks: 4},
		{Strategy: GP, SplitLoc: true, Ranks: 4, SplitMaxPartitions: 2048},
	}
	var first []int64
	for i, po := range cfgs {
		pl, err := BuildPlacement(pop, po)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(pl, SimConfig{Days: 15, Seed: 99, InitialInfections: 8})
		if err != nil {
			t.Fatal(err)
		}
		curve := res.EpiCurve()
		if i == 0 {
			first = curve
			continue
		}
		for d := range curve {
			if curve[d] != first[d] {
				t.Fatalf("%s changed the epidemic on day %d: %d vs %d",
					po.Label(), d, curve[d], first[d])
			}
		}
	}
}

func TestModelDayTimeScales(t *testing.T) {
	pop := smallPop(t)
	opt := DefaultPerfOptions()
	var t1 float64
	var prev float64
	for _, k := range []int{1, 4, 16} {
		pl, err := BuildPlacement(pop, PlacementOptions{Strategy: GP, SplitLoc: true, Ranks: k})
		if err != nil {
			t.Fatal(err)
		}
		d := ModelDayTime(pl, opt)
		if d.Total <= 0 {
			t.Fatalf("k=%d: non-positive day time", k)
		}
		if k == 1 {
			t1 = d.Total
		} else if d.Total >= prev {
			t.Fatalf("k=%d did not speed up: %v >= %v", k, d.Total, prev)
		}
		prev = d.Total
	}
	if machine.Speedup(t1, prev) < 3 {
		t.Fatalf("16 ranks speedup %v too low", machine.Speedup(t1, prev))
	}
}

// remoteVisits counts visit messages that cross ranks under a placement.
func remoteVisits(pl *Placement) int64 {
	var n int64
	for _, v := range pl.Pop.Visits {
		if pl.PersonRank[v.Person] != pl.LocationRank[v.Loc] {
			n++
		}
	}
	return n
}

func TestGPImprovesLocalityOverRR(t *testing.T) {
	// The partitioning objective is "to minimize the communication between
	// the computation phases subject to load balancing constraints": GP
	// must keep far more visits rank-local than RR. (Total modeled time at
	// tiny scales is dominated by the heavy-tail compute imbalance, which
	// is Figure 13's point — so locality, not total time, is the robust
	// assertion here.)
	pop := smallPop(t)
	k := 8
	rr, _ := BuildPlacement(pop, PlacementOptions{Strategy: RR, Ranks: k})
	gp, _ := BuildPlacement(pop, PlacementOptions{Strategy: GP, Ranks: k, Seed: 5})
	remRR, remGP := remoteVisits(rr), remoteVisits(gp)
	if float64(remGP) > 0.7*float64(remRR) {
		t.Fatalf("GP remote visits %d not clearly below RR %d", remGP, remRR)
	}
	// And the messaging cost model must see the difference in the person
	// phase communication terms.
	opt := DefaultPerfOptions()
	cRR := ModelDayTime(rr, opt)
	cGP := ModelDayTime(gp, opt)
	if cGP.Person.Overhead+cGP.Person.Network >= cRR.Person.Overhead+cRR.Person.Network {
		t.Fatalf("GP comm cost %v not below RR %v",
			cGP.Person.Overhead+cGP.Person.Network, cRR.Person.Overhead+cRR.Person.Network)
	}
}

func TestNoOptSlowerThanOptimized(t *testing.T) {
	pop := smallPop(t)
	pl, _ := BuildPlacement(pop, PlacementOptions{Strategy: RR, Ranks: 32})
	tOpt := ModelDayTime(pl, DefaultPerfOptions()).Total
	tNoOpt := ModelDayTime(pl, NoOptPerfOptions()).Total
	if tNoOpt <= tOpt {
		t.Fatalf("no-opt (%v) not slower than optimized (%v)", tNoOpt, tOpt)
	}
}

func TestTorusMappingOrdering(t *testing.T) {
	// Recursive-bisection ranks talk mostly to nearby ranks, so a
	// contiguous rank→node mapping must beat (or tie) the
	// topology-oblivious scattered mapping on the Gemini torus.
	pop := smallPop(t)
	pl, err := BuildPlacement(pop, PlacementOptions{Strategy: GP, Ranks: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cont := DefaultPerfOptions()
	cont.Mapping = MapContiguous
	scat := DefaultPerfOptions()
	scat.Mapping = MapScattered
	tc := ModelDayTime(pl, cont).Total
	ts := ModelDayTime(pl, scat).Total
	if tc > ts {
		t.Fatalf("contiguous mapping (%v) worse than scattered (%v)", tc, ts)
	}
	// And hop pricing must actually engage (scattered strictly worse than
	// a hop-free machine).
	free := DefaultPerfOptions()
	free.Machine.PerHopLatency = 0
	tf := ModelDayTime(pl, free).Total
	if ts <= tf {
		t.Fatalf("scattered mapping (%v) should pay hop latency over hop-free (%v)", ts, tf)
	}
}

func TestPlacementLabels(t *testing.T) {
	cases := map[string]PlacementOptions{
		"RR":          {Strategy: RR},
		"GP":          {Strategy: GP},
		"RR-splitLoc": {Strategy: RR, SplitLoc: true},
		"GP-splitLoc": {Strategy: GP, SplitLoc: true},
	}
	for want, o := range cases {
		if got := o.Label(); got != want {
			t.Fatalf("label %q, want %q", got, want)
		}
	}
}
