// Package machine prices execution traces on a Cray XE6-like machine
// (NCSA Blue Waters): it is the substitute for the paper's 360K physical
// cores, and the one place the machine is modelled. Its inputs are, for
// each logical rank and simulation phase, the compute seconds and the wire
// message counts split intra- vs inter-node; they come from the root
// package's perfmodel.go, which walks a placement's static visit schedule,
// not from the engine (internal/charm counts only local vs remote sends).
// This package maps them to simulated wall-clock time per simulated day.
//
// The model captures exactly the effects the paper's optimizations act on:
//
//   - per-message CPU overhead at sender and receiver, reduced by message
//     aggregation (fewer, larger wire messages; Section IV-C) and offloaded
//     to the dedicated communication thread in SMP mode (Section IV-A);
//   - network latency/bandwidth by locality class (intra-node vs
//     inter-node);
//   - synchronization cost per phase: a logarithmic reduction tree, with
//     completion detection needing fewer confirmation rounds than
//     quiescence detection (Section IV-B);
//   - SMP mode's compute-core tax: k processes per node each donate one
//     core to a communication thread.
//
// Constants are calibrated to Gemini-class hardware in order of magnitude;
// the reproduction targets curve *shape* (who flattens where), not
// absolute Blue Waters numbers.
package machine

import (
	"math"

	"repro/internal/charm"
)

// Config is the machine description plus cost constants (seconds, bytes).
type Config struct {
	// CoresPerNode is the node width (Blue Waters XE6: 32 integer cores).
	CoresPerNode int
	// ProcsPerNode is the SMP process count per node (the paper's k).
	// Ignored unless SMPEnabled.
	ProcsPerNode int
	// SMPEnabled turns on SMP mode: each process donates one core to a
	// dedicated communication thread, which offloads most per-message CPU
	// cost from compute PEs at the price of fewer compute cores per node.
	SMPEnabled bool

	// SendOverhead and RecvOverhead are the compute-thread CPU seconds per
	// wire message when no comm thread helps.
	SendOverhead float64
	RecvOverhead float64
	// CommThreadOffload is the fraction of per-message CPU overhead the
	// communication thread absorbs in SMP mode (0..1).
	CommThreadOffload float64
	// LatencyIntra and LatencyInter are per-wire-message network latencies
	// within a node and between nodes. LatencyInter is the one-hop base;
	// when a torus geometry is set, callers add PerHopLatency per
	// additional hop via RankPhase.ExtraLatency (see Torus and
	// episim.ModelDayTime).
	LatencyIntra float64
	LatencyInter float64
	// PerHopLatency is the added latency per Gemini torus hop beyond the
	// first.
	PerHopLatency float64
	// TorusGeometry is the node torus; zero value disables hop pricing.
	TorusGeometry Torus
	// Bandwidth is per-PE off-node bandwidth in bytes/second.
	Bandwidth float64
	// SyncHopLatency is the latency of one hop of the synchronization
	// reduction tree.
	SyncHopLatency float64
	// SoftwareOverheadFactor multiplies per-message CPU costs; 1.0 for the
	// optimized runtime, >1 models the unoptimized first implementation
	// ("RR no-opt": buffering overhead, conditional branches, memory
	// footprint — Section IV reports ~40% total reduction).
	SoftwareOverheadFactor float64
}

// BlueWatersXE6 returns constants of Gemini-interconnect magnitude:
// microsecond-class message overheads and latencies, multi-GB/s links.
func BlueWatersXE6() Config {
	return Config{
		CoresPerNode:           32,
		ProcsPerNode:           4,
		SMPEnabled:             true,
		SendOverhead:           1.1e-6,
		RecvOverhead:           0.9e-6,
		CommThreadOffload:      0.85,
		LatencyIntra:           0.6e-6,
		LatencyInter:           1.8e-6,
		PerHopLatency:          0.1e-6,
		TorusGeometry:          BlueWatersTorus(),
		Bandwidth:              4.0e9,
		SyncHopLatency:         1.5e-6,
		SoftwareOverheadFactor: 1.0,
	}
}

// RankPhase is one rank's workload during one phase.
type RankPhase struct {
	// Compute is the rank's computation in seconds.
	Compute float64
	// WireOutIntra and WireOutInter are aggregated (wire) message counts
	// sent to other PEs in the same node / other nodes.
	WireOutIntra, WireOutInter int64
	// WireInIntra and WireInInter are wire messages received.
	WireInIntra, WireInInter int64
	// BytesOut is the off-node payload volume sent.
	BytesOut int64
	// ExtraLatency is additional network time (seconds) accumulated by the
	// caller, e.g. per-hop torus latency beyond the one-hop base.
	ExtraLatency float64
}

// PhaseCost breaks down the modeled time of one phase.
type PhaseCost struct {
	Compute  float64 // max per-rank compute
	Overhead float64 // max per-rank messaging CPU cost
	Network  float64 // max per-rank latency + serialization
	Sync     float64 // completion/quiescence detection
	Total    float64
}

// PhaseTime prices one bulk-synchronous phase across ranks: the phase ends
// when the slowest rank has computed, paid its messaging overhead, and its
// traffic has drained, plus the synchronization protocol cost.
func (c Config) PhaseTime(ranks []RankPhase, mode charm.SyncMode) PhaseCost {
	var pc PhaseCost
	offload := 0.0
	if c.SMPEnabled {
		offload = c.CommThreadOffload
	}
	soft := c.SoftwareOverheadFactor
	if soft <= 0 {
		soft = 1
	}
	var worst float64
	for i := range ranks {
		r := &ranks[i]
		// Every product is rounded (an explicit float64) before its sum, so
		// that no target fuses a multiply-add into a modeled time.
		msgCPU := float64((float64(c.SendOverhead*float64(r.WireOutIntra+r.WireOutInter)) +
			float64(c.RecvOverhead*float64(r.WireInIntra+r.WireInInter))) * soft * (1 - offload))
		net := float64(c.LatencyIntra*float64(max(r.WireOutIntra, r.WireInIntra))) +
			float64(c.LatencyInter*float64(max(r.WireOutInter, r.WireInInter))) +
			r.ExtraLatency
		if c.Bandwidth > 0 {
			net += float64(r.BytesOut) / c.Bandwidth
		}
		total := r.Compute + msgCPU + net
		if total > worst {
			worst = total
			pc.Compute = r.Compute
			pc.Overhead = msgCPU
			pc.Network = net
		}
	}
	pc.Sync = c.SyncCost(len(ranks), mode)
	pc.Total = worst + pc.Sync
	return pc
}

// SyncCost prices the phase synchronization: a reduction tree of
// ceil(log2(P))+1 hops per confirmation round; completion detection
// confirms produced==consumed in 2 rounds, quiescence detection needs 4
// (global idleness plus re-confirmation across the whole application).
func (c Config) SyncCost(pes int, mode charm.SyncMode) float64 {
	if pes < 1 {
		pes = 1
	}
	rounds := 2.0
	if mode == charm.QuiescenceDetection {
		rounds = 4.0
	}
	hops := math.Ceil(math.Log2(float64(pes))) + 1
	return rounds * hops * c.SyncHopLatency
}

// DayCost aggregates the phases of one simulated day (person phase, sync,
// location phase, sync, state-update/reduction phase).
type DayCost struct {
	Person   PhaseCost
	Location PhaseCost
	Update   PhaseCost
	Total    float64
}

// DayTime prices one full simulation day given per-rank traces for the
// person (visit-sending) phase, the location (DES + infect) phase, and the
// lightweight state-update phase.
func (c Config) DayTime(person, location, update []RankPhase, mode charm.SyncMode) DayCost {
	var d DayCost
	d.Person = c.PhaseTime(person, mode)
	d.Location = c.PhaseTime(location, mode)
	d.Update = c.PhaseTime(update, mode)
	d.Total = d.Person.Total + d.Location.Total + d.Update.Total
	return d
}

// Speedup returns t1/tp.
func Speedup(t1, tp float64) float64 {
	if tp <= 0 {
		return 0
	}
	return t1 / tp
}

// Efficiency returns speedup/p.
func Efficiency(t1, tp float64, p int) float64 {
	if p <= 0 {
		return 0
	}
	return Speedup(t1, tp) / float64(p)
}
