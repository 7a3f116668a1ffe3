package episim

import (
	"math"

	"repro/internal/charm"
	"repro/internal/loadmodel"
	"repro/internal/machine"
)

// PerfOptions parameterizes the machine-model pricing of a placement: the
// substitute for running on 360K Blue Waters cores. The compute constants
// are in Blue Waters seconds: the location cost comes from the paper's own
// published load model, so modeled times per day land in the same decade
// as Figure 13's y-axis.
type PerfOptions struct {
	// Machine is the hardware model.
	Machine machine.Config
	// Aggregation is the message-aggregation buffer size (0 = off).
	Aggregation int
	// Sync selects the phase synchronization protocol.
	Sync charm.SyncMode
	// PersonSecPerVisit is the person-phase cost per visit message
	// (health recalculation + message construction).
	PersonSecPerVisit float64
	// UpdateSecPerPerson is the state-update phase cost per person.
	UpdateSecPerPerson float64
	// LocModel maps a location's event count to location-phase seconds.
	LocModel loadmodel.Static
	// InfectFraction approximates infect messages per visit message
	// (epidemic-dependent; only matters for the reverse-direction traffic).
	InfectFraction float64
	// VisitMsgBytes is the wire size of one visit message.
	VisitMsgBytes int
	// Mapping places ranks on torus nodes: contiguous (topology-aware:
	// recursive-bisection ranks communicate mostly with near ranks) or
	// scattered (topology-oblivious, priced at the torus mean hop
	// distance). Only matters when the machine has a torus geometry.
	Mapping RankMapping
}

// RankMapping selects the rank→node placement policy for torus pricing.
type RankMapping uint8

// Rank mapping policies.
const (
	// MapContiguous packs consecutive ranks onto consecutive torus nodes.
	MapContiguous RankMapping = iota
	// MapScattered models a topology-oblivious placement: every inter-node
	// message pays the torus-average hop distance.
	MapScattered
)

// DefaultPerfOptions returns Blue Waters-flavored defaults: the paper's
// published location load model, microsecond-class person costs, and the
// aggregation/SMP/CD settings of the optimized implementation.
func DefaultPerfOptions() PerfOptions {
	return PerfOptions{
		Machine:            machine.BlueWatersXE6(),
		Aggregation:        64,
		Sync:               charm.CompletionDetection,
		PersonSecPerVisit:  2.0e-6,
		UpdateSecPerPerson: 1.5e-7,
		LocModel:           loadmodel.Paper(),
		InfectFraction:     0.02,
		VisitMsgBytes:      28,
	}
}

// NoOptPerfOptions returns the "RR no-opt" configuration of Figure 12: no
// aggregation, no SMP communication thread, quiescence detection, and the
// unoptimized software overhead factor.
func NoOptPerfOptions() PerfOptions {
	o := DefaultPerfOptions()
	o.Aggregation = 0
	o.Sync = charm.QuiescenceDetection
	o.Machine.SMPEnabled = false
	o.Machine.SoftwareOverheadFactor = 1.8
	return o
}

// ModelSweepSeconds prices one whole sweep-cell simulation in modeled
// machine seconds: the placement's per-day cost under the machine model,
// times the cell's simulated-day count. The ensemble executor uses it as
// the cost oracle for longest-processing-time dispatch: cells are fed to
// the worker pool most-expensive-first, which cuts makespan on wide
// grids whose cells vary wildly in size.
func ModelSweepSeconds(pl *Placement, days int, opt PerfOptions) float64 {
	if days < 1 {
		days = 1
	}
	return ModelDayTime(pl, opt).Total * float64(days)
}

// ModelDayTime prices one simulated day of the placement on the machine
// model: per-rank compute from the workload models over the actual
// per-object visit counts, plus the exact cross-rank message matrix implied
// by the placement (aggregated per source–destination pair, classified
// intra- vs inter-node by the machine's SMP geometry).
func ModelDayTime(pl *Placement, opt PerfOptions) machine.DayCost {
	K := pl.Ranks
	pop := pl.Pop
	pesPerNode := opt.Machine.CoresPerNode
	if opt.Machine.SMPEnabled {
		pesPerNode -= opt.Machine.ProcsPerNode
	}
	if pesPerNode < 1 {
		pesPerNode = 1
	}
	nodeOf := func(rank int32) int32 { return rank / int32(pesPerNode) }

	person := make([]machine.RankPhase, K)
	location := make([]machine.RankPhase, K)
	update := make([]machine.RankPhase, K)

	// Compute terms.
	visitCounts := pop.VisitCountsPerLocation()
	for l, r := range pl.LocationRank {
		location[r].Compute += opt.LocModel.VisitLoad(visitCounts[l])
	}
	for p := int32(0); p < int32(pop.NumPersons()); p++ {
		r := pl.PersonRank[p]
		nVisits := len(pop.PersonVisits(p))
		person[r].Compute += float64(nVisits) * opt.PersonSecPerVisit
		update[r].Compute += opt.UpdateSecPerPerson
	}

	// Message matrix: visits crossing ranks, accumulated per (src,dst).
	pairs := make(map[uint64]int64)
	for _, v := range pop.Visits {
		src := pl.PersonRank[v.Person]
		dst := pl.LocationRank[v.Loc]
		if src == dst {
			continue
		}
		pairs[uint64(src)<<32|uint64(uint32(dst))]++
	}
	torus := opt.Machine.TorusGeometry
	hopPricing := torus.Nodes() > 1 && opt.Machine.PerHopLatency > 0
	meanHops := 0.0
	if hopPricing {
		meanHops = torus.MeanHops()
	}
	extraHops := func(src, dst int32) float64 {
		if !hopPricing {
			return 0
		}
		if opt.Mapping == MapScattered {
			return meanHops - 1 // beyond the one-hop base
		}
		h := float64(torus.HopDistance(int(nodeOf(src)), int(nodeOf(dst)))) - 1
		if h < 0 {
			h = 0
		}
		return h
	}
	for key, count := range pairs {
		src := int32(key >> 32)
		dst := int32(uint32(key))
		wire := count
		if opt.Aggregation > 1 {
			wire = (count + int64(opt.Aggregation) - 1) / int64(opt.Aggregation)
		}
		inter := nodeOf(src) != nodeOf(dst)
		// Person phase: visit messages person-rank → location-rank.
		if inter {
			person[src].WireOutInter += wire
			person[dst].WireInInter += wire
			person[src].BytesOut += count * int64(opt.VisitMsgBytes)
			person[src].ExtraLatency += float64(wire) * opt.Machine.PerHopLatency * extraHops(src, dst)
		} else {
			person[src].WireOutIntra += wire
			person[dst].WireInIntra += wire
		}
		// Location phase: infect messages flow the reverse direction,
		// sparse and unaggregated.
		infect := int64(math.Ceil(float64(count) * opt.InfectFraction))
		if inter {
			location[dst].WireOutInter += infect
			location[src].WireInInter += infect
			location[dst].BytesOut += infect * 16
		} else {
			location[dst].WireOutIntra += infect
			location[src].WireInIntra += infect
		}
	}

	return opt.Machine.DayTime(person, location, update, opt.Sync)
}
