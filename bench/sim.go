package main

import (
	"fmt"
	"runtime"
	"time"

	episim "repro"
	"repro/internal/charm"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/disease"
)

// simSize sizes a single-simulation workload. Index cases are a few per
// cent (dense) or per mille (sparse) of the population so that the
// epidemic is the sum of hundreds of transmission chains: its daily work
// then repeats within a few per cent from seed to seed, which a handful
// of index cases would not (their runs differ by 6x in wall time).
type simSize struct {
	people, locations, ranks int
	index, days              int
	strategy                 episim.Strategy
	splitLoc                 bool
	// tau scales the default model's transmissibility.
	tau float64
}

// simInstance times episim.Run on one placement under two
// configurations (primary and secondary).
type simInstance struct {
	name   string
	suffix string // per-layer metric suffix ("" or ".sparse")
	size   simSize
	seed   uint64
	pl     *episim.Placement
	cfgs   [2]episim.SimConfig
	kinds  [2]string
	last   [2]*episim.Result
	// replay adds the stand-alone charm and des replays to the traced run.
	replay bool
	// tracedSecond also traces one secondary unit, for its own per-layer
	// metrics (suffix "." + kind).
	tracedSecond bool
}

func newSimDense(p params) (instance, error) {
	size := simSize{people: 20000, locations: 5000, ranks: 16, index: 1000, days: 10,
		strategy: episim.GP, splitLoc: true, tau: 1}
	if p.smoke {
		size = simSize{people: 1500, locations: 300, ranks: 4, index: 60, days: 4,
			strategy: episim.GP, splitLoc: true, tau: 1}
	}
	s := &simInstance{name: "sim-dense", size: size, seed: p.seed, replay: true,
		kinds: [2]string{"sequential", "parallel"}}
	return s, s.setUp(episim.SimConfig{}, episim.SimConfig{Parallel: true})
}

func newSimSparse(p params) (instance, error) {
	size := simSize{people: 50000, locations: 12500, ranks: 16, index: 250, days: 12,
		strategy: episim.RR, tau: 0.5}
	if p.smoke {
		size = simSize{people: 3000, locations: 600, ranks: 4, index: 30, days: 6,
			strategy: episim.RR, tau: 0.5}
	}
	s := &simInstance{name: "sim-sparse", suffix: ".sparse", size: size, seed: p.seed, tracedSecond: true,
		kinds: [2]string{"auto", "event"}}
	return s, s.setUp(episim.SimConfig{Kernel: core.KernelAuto}, episim.SimConfig{Kernel: core.KernelEvent})
}

func (s *simInstance) setUp(primary, secondary episim.SimConfig) error {
	z := s.size
	pop := episim.Generate(s.name, z.people, z.locations, s.seed)
	pl, err := episim.BuildPlacement(pop, episim.PlacementOptions{
		Strategy: z.strategy, SplitLoc: z.splitLoc, Ranks: z.ranks, Seed: s.seed})
	if err != nil {
		return err
	}
	s.pl = pl
	model := disease.Default()
	model.Transmissibility *= z.tau
	for i, cfg := range [2]episim.SimConfig{primary, secondary} {
		cfg.Days, cfg.Seed, cfg.InitialInfections = z.days, s.seed, z.index
		cfg.Model, cfg.AggBufferSize = model, 64
		s.cfgs[i] = cfg
		if err := s.run(i); err != nil { // warm-up unit
			return err
		}
	}
	return nil
}

func (s *simInstance) run(kind int) error {
	res, err := episim.Run(s.pl, s.cfgs[kind])
	if err != nil {
		return fmt.Errorf("%s run: %w", s.kinds[kind], err)
	}
	s.last[kind] = res
	return nil
}

func (s *simInstance) measure(d time.Duration) *measurement {
	m := &measurement{}
	repeatFor(d, minUnits, func() {
		m.unit(s.kinds[0], &m.wall, func() error { return s.run(0) })
		m.unit(s.kinds[1], &m.second, func() error { return s.run(1) })
	})
	return m
}

func (s *simInstance) trace(d time.Duration, rec *recorder) *measurement {
	m := &measurement{}
	if s.replay {
		s.replayCharm(rec, false)
		s.replayCharm(rec, true)
		s.replayDES(rec)
	}
	n := 0
	repeatFor(d, 1, func() {
		n++
		m.unit(s.kinds[0], &m.wall, func() error { return s.run(0) })
		m.unit(s.kinds[0]+" traced", &m.traced, func() error {
			return s.tracedRun(rec, fmt.Sprintf("%s-%d", s.name, n), 0, s.suffix)
		})
		if s.tracedSecond && n == 1 {
			if err := s.tracedRun(rec, s.kinds[1]+"-"+s.name, 1, "."+s.kinds[1]); err != nil {
				m.fail(s.kinds[1]+" traced", err)
			}
		}
	})
	return m
}

// coreConfig is the engine configuration episim.Run derives from a
// placement and a SimConfig, for the fields the workloads set.
func (s *simInstance) coreConfig(cfg episim.SimConfig) core.Config {
	return core.Config{
		Population: s.pl.Pop, Disease: cfg.Model, Days: cfg.Days, Seed: cfg.Seed,
		InitialInfections: cfg.InitialInfections, Ranks: s.pl.Ranks, Parallel: cfg.Parallel,
		AggBufferSize: cfg.AggBufferSize, SyncMode: charm.CompletionDetection,
		PersonRank: s.pl.PersonRank, LocationRank: s.pl.LocationRank, Kernel: cfg.Kernel,
	}
}

// tracedRun is episim.Run taken apart: core.New, then one RunDay per
// day, a span around each, allocator deltas around the loop and the
// message counts of every phase. Its epidemic curve must equal the plain
// run's, or the trace describes some other computation.
func (s *simInstance) tracedRun(rec *recorder, traceID string, kind int, suffix string) error {
	cfg := s.cfgs[kind]
	root := rec.begin(traceID, 0, "bench.unit")
	defer rec.end(root)

	newID := rec.begin(traceID, root, "core.new")
	eng, err := core.New(s.coreConfig(cfg))
	rec.end(newID)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loopStart := time.Now()
	days := make([]core.DayReport, 0, cfg.Days)
	dayMS := make([]float64, 0, cfg.Days)
	for day := 1; day <= cfg.Days; day++ {
		id := rec.begin(traceID, root, "core.day")
		t0 := time.Now()
		days = append(days, eng.RunDay(day))
		dayMS = append(dayMS, float64(time.Since(t0).Nanoseconds())/1e6)
		rec.end(id)
	}
	loop := time.Since(loopStart).Seconds()
	runtime.ReadMemStats(&after)

	for i, d := range days {
		if want := s.last[kind].Days[i].NewInfections; d.NewInfections != want {
			return fmt.Errorf("traced %s run diverged on day %d: %d new infections, plain run had %d",
				s.kinds[kind], d.Day, d.NewInfections, want)
		}
	}

	nDays := float64(len(days))
	rec.count("core.new_ms"+suffix, float64(rec.spanNS(newID))/1e6)
	rec.count("core.day_ms_p50"+suffix, median(dayMS))
	rec.count("core.day_ms_max"+suffix, percentile(dayMS, 100))
	rec.count("core.mallocs_per_day"+suffix, float64(after.Mallocs-before.Mallocs)/nDays)
	rec.count("core.alloc_mb_per_day"+suffix, float64(after.TotalAlloc-before.TotalAlloc)/nDays/(1<<20))
	rec.count("core.gc_pause_ms"+suffix, float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	rec.count("core.pdays_per_s"+suffix, float64(s.pl.Pop.NumPersons())*nDays/loop)
	// Days run by the kernel this unit is for: "auto" may fall back to a
	// dense day and "event" to an active one, and then counts fewer.
	kernel := map[string]string{"": core.KernelDense, core.KernelAuto: "active", core.KernelEvent: core.KernelEvent}[cfg.Kernel]
	var kernelDays float64
	for _, d := range days {
		if d.Kernel == kernel || (d.Kernel == "" && kernel == core.KernelDense) {
			kernelDays++
		}
	}
	rec.count("core.kernel_days_"+kernel, kernelDays)
	if kind == 0 && s.replay {
		charmCounts(rec, days)
	}
	return nil
}

// charmCounts reports the runtime's exact per-day message accounting,
// the numbers the paper's communication figures are computed from.
func charmCounts(rec *recorder, days []core.DayReport) {
	var msgs, wire, bytes, local float64
	for _, d := range days {
		for _, ph := range []charm.PhaseStats{d.PersonPhase, d.LocationPhase, d.UpdatePhase} {
			msgs += float64(ph.Messages)
			wire += float64(ph.WireMessages)
			bytes += float64(ph.Bytes)
			local += float64(ph.ByLocality[charm.LocalPE])
		}
	}
	n := float64(len(days))
	rec.count("charm.msgs_per_day", msgs/n)
	rec.count("charm.wire_msgs_per_day", wire/n)
	rec.count("charm.bytes_per_day", bytes/n)
	rec.count("charm.agg_factor", (msgs-local)/max(wire, 1))
	rec.count("charm.remote_frac", (msgs-local)/max(msgs, 1))
}

// replayVisit is the replay's stand-in for the engine's visit message,
// accounted at the same wire size.
type replayVisit struct{}

func (replayVisit) WireSize() int { return 32 }

type replayStart struct{}

// replaySender sends one message per visit of its rank's persons to the
// chare of the visited location's rank; replaySink receives them and
// does nothing, so what is timed is the runtime's own work per message.
type replaySender struct {
	dests []int32 // destination rank of every visit of this rank's persons
	sinks int32   // array id of the sinks
}

func (c *replaySender) Recv(ctx *charm.Ctx, msg charm.Message) {
	for _, d := range c.dests {
		ctx.Send(charm.ChareRef{Array: c.sinks, Index: d}, replayVisit{})
	}
}

type replaySink struct{}

func (replaySink) Recv(*charm.Ctx, charm.Message) {}

// replayCharm drains one simulated day's person-to-location message
// pattern through a stand-alone runtime with no-op receivers.
func (s *simInstance) replayCharm(rec *recorder, parallel bool) {
	pop, ranks := s.pl.Pop, s.pl.Ranks
	dests := make([][]int32, ranks)
	for _, v := range pop.Visits {
		r := s.pl.PersonRank[v.Person]
		dests[r] = append(dests[r], s.pl.LocationRank[v.Loc])
	}
	rt := charm.New(charm.Config{PEs: ranks, Parallel: parallel, AggBufferSize: 64})
	onRank := func(i int32) charm.PE { return i }
	sinks := rt.NewArray(ranks, func(int32) charm.Chare { return replaySink{} }, onRank)
	senders := rt.NewArray(ranks, func(i int32) charm.Chare {
		return &replaySender{dests: dests[i], sinks: sinks}
	}, onRank)

	name, metric := "charm.drain", "charm.drain_ns_per_msg"
	if parallel {
		name, metric = "charm.drain_par", "charm.drain_par_ns_per_msg"
	}
	for i := 0; i < 5; i++ {
		runtime.GC()
		rt.Broadcast(senders, replayStart{})
		id := rec.begin("charm-replay", 0, name)
		stats := rt.Drain()
		rec.end(id)
		rec.count(metric, float64(rec.spanNS(id))/float64(max(stats.Messages, 1)))
	}
}

// replayDES runs the per-location discrete-event simulation of one day
// over every location's visitor list, with a fixed 5 % of persons
// marked infectious and the rest susceptible, outside the engine.
func (s *simInstance) replayDES(rec *recorder) {
	pop := s.pl.Pop
	offsets, order := pop.VisitIndexByLocation()
	visitors := make([][]des.Visitor, pop.NumLocations())
	for l := range visitors {
		for _, vi := range order[offsets[l]:offsets[l+1]] {
			v := pop.Visits[vi]
			dv := des.Visitor{Person: v.Person, Sub: v.Sub, OrigSub: v.Sub, Start: v.Start, End: v.End, Susceptibility: 1}
			if v.Person%20 == 0 {
				dv.Infectivity, dv.Susceptibility = 1, 0
			}
			visitors[l] = append(visitors[l], dv)
		}
	}
	tau := s.cfgs[0].Model.Transmissibility
	for i := 0; i < 5; i++ {
		var out des.Result
		var events, interactions, trials int64
		runtime.GC()
		id := rec.begin("des-replay", 0, "des.simulate_day")
		for l, vs := range visitors {
			loc := &pop.Locations[l]
			out.Reset()
			des.Simulate(vs, des.Params{Day: 1, LocKey: uint64(loc.Origin), SubBase: loc.SubBase, Tau: tau}, &out)
			events += int64(out.Events)
			interactions += out.Interactions
			trials += out.Trials
		}
		rec.end(id)
		rec.count("des.ns_per_event", float64(rec.spanNS(id))/float64(max(events, 1)))
		rec.count("des.events_per_day", float64(events))
		rec.count("des.interactions_per_day", float64(interactions))
		rec.count("des.trials_per_day", float64(trials))
	}
}

func (s *simInstance) verify() []check {
	var cs []check
	for i, res := range s.last {
		cs = append(cs, check{s.kinds[i] + " conservation", conservation(res, s.pl.Pop.NumPersons())})
	}
	switch s.name {
	case "sim-dense":
		var err error
		if !equalJSON(outcome(s.last[0]), outcome(s.last[1])) {
			err = fmt.Errorf("sequential and parallel results differ")
		}
		cs = append(cs, check{"sequential = parallel", err})
	case "sim-sparse":
		cs = append(cs, check{"auto = dense, days 1-6", s.autoMatchesDense(6)})
	}
	return cs
}

// dayOutcome is what a simulated day computed, free of how it was
// scheduled: the epidemic, the DES work and the chare-level message
// volume. Wire messages and sync rounds depend on when buffers happened
// to flush and are left out.
type dayOutcome struct {
	Day                          int
	Counts                       map[string]int64
	NewInfections                int64
	Events, Interactions, Trials int64
	Messages, Bytes              [3]int64
}

func outcome(res *episim.Result) []dayOutcome {
	out := make([]dayOutcome, len(res.Days))
	for i, d := range res.Days {
		out[i] = dayOutcome{d.Day, d.Counts, d.NewInfections, d.Events, d.Interactions, d.Trials,
			[3]int64{d.PersonPhase.Messages, d.LocationPhase.Messages, d.UpdatePhase.Messages},
			[3]int64{d.PersonPhase.Bytes, d.LocationPhase.Bytes, d.UpdatePhase.Bytes}}
	}
	return out
}

// conservation checks a result against itself: the daily new infections
// plus the index cases add up to the total, and the total is exactly
// the number of persons who left the susceptible state.
func conservation(res *episim.Result, persons int) error {
	var sum int64
	for _, d := range res.Days {
		sum += d.NewInfections
	}
	index := res.TotalInfections - sum
	if sum <= 0 || index <= 0 {
		return fmt.Errorf("%d new infections from %d index cases: no epidemic simulated", sum, index)
	}
	if left := int64(persons) - res.FinalCounts["susceptible"]; left != res.TotalInfections {
		return fmt.Errorf("%d persons left susceptible but TotalInfections is %d", left, res.TotalInfections)
	}
	return nil
}

// autoMatchesDense reruns the first days with the dense kernel and
// compares what the byte-identity contract of kernel "auto" covers:
// every day's counts and new infections (the phase statistics differ by
// design: they report the reduced work).
func (s *simInstance) autoMatchesDense(days int) error {
	cfg := s.cfgs[0]
	cfg.Kernel, cfg.Days = core.KernelDense, min(days, cfg.Days)
	dense, err := episim.Run(s.pl, cfg)
	if err != nil {
		return err
	}
	for i, d := range dense.Days {
		a := s.last[0].Days[i]
		if d.NewInfections != a.NewInfections || !equalJSON(d.Counts, a.Counts) {
			return fmt.Errorf("day %d: dense %d new %v, auto %d new %v", d.Day, d.NewInfections, d.Counts, a.NewInfections, a.Counts)
		}
	}
	return nil
}

func (s *simInstance) digest() string {
	return digestJSON(outcome(s.last[0]), outcome(s.last[1]))
}

func (s *simInstance) describe() map[string]any {
	d := describePopulation(s.pl.Pop)
	d["placement"] = s.pl.Label
	d["ranks"] = s.pl.Ranks
	d["index_cases"] = s.size.index
	d["days"] = s.size.days
	d["tau_scale"] = s.size.tau
	d["units"] = s.kinds[:]
	return d
}

func (s *simInstance) close() {}

// describePopulation gives the sizes of a population and the bytes of
// its visit schedule and object tables — the working set a day sweeps.
func describePopulation(pop *episim.Population) map[string]any {
	return map[string]any{
		"persons":   pop.NumPersons(),
		"locations": pop.NumLocations(),
		"visits":    pop.NumVisits(),
		"working_set_bytes": int64(pop.NumVisits())*16 + int64(pop.NumPersons())*24 +
			int64(pop.NumLocations())*24 + int64(len(pop.PersonVisitOffsets))*4,
	}
}
