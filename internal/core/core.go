// Package core is the EpiSimdemics engine: the agent-based contagion
// simulation of Section II, executed on the charm runtime. Each simulated
// day runs the paper's algorithm:
//
//  1. PersonManager chares update their persons and send visit messages to
//     LocationManager chares (aggregated, Section IV-C);
//  2. completion detection synchronization;
//  3. LocationManagers replay visits as a sequential DES per location,
//     computing transmissions and sending infect messages back;
//  4. completion detection synchronization;
//  5. PersonManagers apply infections and health-state progressions;
//  6. global state (counts per health state) is reduced.
//
// All stochastic draws are keyed by content (person ids, days, original
// location ids), so the epidemic trajectory is bit-identical across any
// data distribution (RR, GP, with or without splitLoc), any rank count,
// and sequential vs parallel execution — the repository's main
// correctness oracle.
//
// A day allocates per rank, not per message. Managers send messages in
// place: each is appended to a slab its sender owns and a pointer into the
// slab is sent (locationManager.result; a PM's per-LM visit batches,
// personManager.batches, each sent whole by one charm.Ctx.SendN). The rule
// that makes this safe: a slab is rewritten only by the same phase of the
// next day — by then the phase it was sent in has completed, which means
// every message was consumed, and a receiver copies what it keeps — and
// within a phase it is only appended to, so a slab that grows leaves the
// pointers already sent on an array nobody writes again. The same rule
// covers what a visit message is copied into: the engine's fill of the
// static schedule (des.Day, plan.go), whose slots and day stamps the person
// phase writes and only the next day's person phase overwrites, each slot
// by the one manager owning its location. Receiving managers keep their
// buffers (replica lists, infection buffers) from day to day, truncated.
//
// The person phase costs a kept visit one read of its PM's slot reference,
// which names the slot, the location and the location's LM, and one lookup
// of its visitor's health; the location itself is read only on a day with a
// filter in force (keepVisit) and for a mixing replica. The receiving LM
// does one Fill per visit message, and its DES walks its own locations.
//
// Three kernels execute a day (Config.Kernel), and two algorithms. The
// day stepper (runDayStepped, active.go) is the algorithm above, with one
// control message and one manager handler per phase: a dense day targets
// every manager, an active day (the "auto" kernel) walks the infectious
// frontier first and targets only the managers owning its work. The event
// kernel (eventsim.go) resolves transmission analytically instead, sharing
// walkFrontier and progressSparse with active days. Every kernel opens its
// day in beginDay — interventions, the vaccination campaign, then the
// filter tables — closes it in endDay, and filters visits by keepVisit.
package core

import (
	"fmt"

	"repro/internal/charm"
	"repro/internal/des"
	"repro/internal/disease"
	"repro/internal/interventions"
	"repro/internal/synthpop"
	"repro/internal/xrand"
)

// Config configures a simulation.
type Config struct {
	Population *synthpop.Population
	Disease    *disease.Model
	// Scenario optionally applies interventions (may be nil).
	Scenario *interventions.Scenario
	Days     int
	Seed     uint64
	// InitialInfections seeds approximately this many index cases on day 0.
	InitialInfections int

	// Ranks is the number of logical PEs (core-modules).
	Ranks int
	// Parallel selects goroutine-per-PE execution instead of the
	// deterministic sequential scheduler: charm's parallel scheduler, which
	// ends each phase on an exact count of unprocessed messages. Only the
	// wire counters (WireMessages, PerPE[].WireOut) depend on the schedule.
	Parallel bool
	// AggBufferSize enables message aggregation when > 0.
	AggBufferSize int
	// Route2D enables TRAM-style topological routing of aggregated
	// messages (charm.Config.Route2D); it requires AggBufferSize > 0.
	Route2D bool
	// SyncMode is ignored: the engine detects each phase's end exactly, and
	// only episim.PerfOptions.Sync prices a synchronization mode. The field
	// stays only because bench/sim.go sets it; it goes with the next change
	// to the benchmark.
	SyncMode charm.SyncMode
	// ChareFactor over-decomposes: managers per rank per array. Default 1.
	ChareFactor int
	// PersonRank and LocationRank assign each person/location to a rank;
	// nil means round-robin (the paper's RR baseline).
	PersonRank   []int32
	LocationRank []int32
	// Mixing enables the inter-sublocation mixing model (the paper's
	// future work, Section III-C): people in different sublocations of the
	// same location interact with transmission scaled by this factor.
	// When the population was split, infectious visitors are replicated to
	// every fragment of their location ("dividing the susceptibles while
	// replicating the infectious", Figure 6(b)) so that outcomes stay
	// identical to the unsplit population.
	Mixing float64

	// Kernel selects the per-day simulation kernel:
	//
	//   - "" or "dense": the paper's day-stepped algorithm, broadcasting
	//     every phase to every manager (the historical behavior).
	//   - "auto": active-set day stepping — phases 1 and 2 touch only the
	//     locations reachable from the infectious frontier and the persons
	//     visiting them, and days with no infectious person skip those
	//     phases entirely. Byte-identical to "dense" (same keyed draws,
	//     same infection multisets); only the phase statistics reflect the
	//     reduced work.
	//   - "event": a Gillespie/FastSIR event-driven kernel while
	//     prevalence is below KernelThreshold (per-person infection
	//     hazards accumulated off the frontier, exponential waiting
	//     times); above the threshold (with hysteresis, so the choice
	//     doesn't flap day to day) it runs the active-set day stepper.
	//     Statistically equivalent to "dense", not byte-identical.
	Kernel string
	// KernelThreshold is the infectious-prevalence fraction below which
	// Kernel "event" uses the Gillespie path (default 0.01). The event
	// kernel re-engages only after prevalence falls below the threshold
	// and disengages once it exceeds 1.5× the threshold.
	KernelThreshold float64
}

// Kernel names accepted by Config.Kernel (the empty string means dense).
const (
	KernelDense = "dense"
	KernelAuto  = "auto"
	KernelEvent = "event"

	// kernelActive labels a day executed by the active-set stepper in
	// DayReport.Kernel; it is not a Config.Kernel value.
	kernelActive = "active"
)

// eventExitFactor is the hysteresis band of the event kernel: it
// disengages only above KernelThreshold×eventExitFactor.
const eventExitFactor = 1.5

// denseSwitchNum/denseSwitchDen bound the active stepper's overhead: when
// more than 1/4 of the population is infectious the frontier walk and
// active-set construction stop paying for themselves, so "auto" runs a
// plain dense day (byte-identical either way).
const (
	denseSwitchNum = 1
	denseSwitchDen = 4
)

// DayReport describes one simulated day.
type DayReport struct {
	Day           int
	Counts        map[string]int64
	NewInfections int64
	// Phase statistics from the runtime (person, location, update).
	PersonPhase   charm.PhaseStats
	LocationPhase charm.PhaseStats
	UpdatePhase   charm.PhaseStats
	// DES workload counters summed over locations (dynamic load inputs).
	Events       int64
	Interactions int64
	Trials       int64
	// Kernel names the kernel that executed this day ("dense", "active"
	// or "event"); empty when the engine runs with the default kernel, so
	// historical JSON output is byte-stable.
	Kernel string `json:"Kernel,omitempty"`
}

// Result is a completed simulation.
type Result struct {
	Days            []DayReport
	TotalInfections int64
	AttackRate      float64
	FinalCounts     map[string]int64
	// KernelDays counts simulated days per executing kernel; nil when the
	// engine ran with the default (unlabeled) dense kernel.
	KernelDays map[string]int64 `json:"KernelDays,omitempty"`
}

// EpiCurve returns the daily new-infection series.
func (r *Result) EpiCurve() []int64 {
	out := make([]int64, len(r.Days))
	for i, d := range r.Days {
		out[i] = d.NewInfections
	}
	return out
}

// personState is the PTTS bookkeeping for one person. Owned exclusively by
// the person's PersonManager.
type personState struct {
	State     disease.StateID
	Treatment disease.TreatmentID
	DaysLeft  int32 // full days remaining in State; <0 means absorbing
	Infected  bool  // ever infected (attack-rate numerator)
}

// Engine executes a configured simulation.
type Engine struct {
	cfg    Config
	pop    *synthpop.Population
	model  *disease.Model
	rt     *charm.Runtime
	pmArr  int32
	lmArr  int32
	health []personState
	// plan is the placement's part of the engine, which every engine built
	// from it shares and only reads; fragments is its families() in mixing
	// mode.
	plan      *Plan
	fragments map[int32][]int32
	// infectionBuf[pm] accumulates infect messages received by PM chares.
	infectionBuf [][]infectMsg
	effects      *interventions.Effects
	// keepVisit's tables, refreshed from effects by beginDay: isolation per
	// StateID, closure and demand-reduction fraction per location type, and
	// filtering, whether any entry is in force.
	isolated  []bool
	closed    [synthpop.NumLocationTypes]bool
	reduce    [synthpop.NumLocationTypes]float64
	filtering bool
	// stateNames caches disease state names, stateKeys the reduction key
	// of each state's count ("state:" + name).
	stateNames []string
	stateKeys  []string
	cumulative int64

	// Incremental health bookkeeping, one slab per PM so parallel update
	// phases mutate disjoint memory: per-state population counts plus the
	// two sparse sets the active and event kernels walk instead of the
	// whole population. The engine-wide position arrays are safe to share
	// because every person belongs to exactly one PM.
	pmHealth []pmHealth
	infPos   []int32 // person → index in its PM's infectious set (-1 = absent)
	progPos  []int32 // person → index in its PM's progressing set (-1 = absent)
	// stateInfectious caches state-level infectiousness per StateID.
	stateInfectious []bool

	// eventOn is the event kernel's hysteresis latch: true while the
	// Gillespie path is engaged.
	eventOn bool
	// denseDay tells the managers that today's phases target every one of
	// them; false on an active day. Written by beginDay, read-only during
	// phases, like activeLoc.
	denseDay bool

	// Fork-point resumption (see checkpoint.go): a restored or prefixed
	// engine starts Run at startDay+1 and prepends the prefix's reports.
	// stepped guards RunPrefix/Restore against engines that already
	// simulated days through RunDay.
	startDay int
	prefix   []DayReport
	stepped  bool

	// The plan's visits in location order, fetched by the first non-dense
	// day (visitIndex), and its static schedule and PM slot lists, fetched
	// by the first day that runs a location phase (beginLocationDay), which
	// also opens day, the engine's own fill of the schedule.
	locOffsets []int32
	locVisits  []synthpop.Visit
	sched      *des.Schedule
	pmSlots    [][]slotRef
	day        *des.Day

	// Active-set scratch, allocated lazily on the first non-dense day.
	activeLoc     []bool      // location → active this day (read-only during phases)
	activeLocList []int32     // the marked locations, for O(active) clearing
	activeSlots   [][]slotRef // PM → its slots at active locations: an active day's person phase
	lmNeeded      []bool      // LM → owns an active location today
	// Event-kernel scratch, allocated on its first day: the frontier's kept
	// visits by location (emptied through activeLocList), and each exposed
	// person's accumulated hazard, with a bit per person in exposedBits
	// marking the exposed (lambda cannot: a hazard accumulated under τ = 0 is
	// zero). Both are cleared as the day's trials scan the bitmap. rooms is
	// the plan's room index, evScratch one location's visits, sized to the
	// largest.
	srcVisits   [][]srcVisit
	lambda      []float64
	exposedBits []uint64
	rooms       *roomIndex
	evScratch   []evVisit
}

// pmHealth is one PersonManager's slab of incremental health bookkeeping.
type pmHealth struct {
	// counts[s] is the number of this PM's persons currently in state s.
	counts []int64
	// infectious holds persons whose *state* is infectious (effective
	// infectivity may still be zeroed by a treatment; callers re-check).
	infectious []int32
	// progressing holds persons with DaysLeft >= 0 — everyone whose
	// health state can still change without a new exposure.
	progressing []int32
}

// slotRef is a visit's slot in the static schedule, its location, its
// person (which the slot holds too, but a PM reads it here, in list order)
// and its location's manager.
type slotRef struct{ slot, loc, person, lm int32 }

// visitMsg is one visit message (paper Section II-B step 1): the visit's
// slot in the static schedule, which stands for the person, sublocation and
// times, the location it is sent to (a sibling fragment's, for a mixing
// replica) and the sender's effective disease parameters.
type visitMsg struct {
	Slot     int32
	Loc      int32
	Inf, Sus float32
}

// visitBatch is the visit messages one PM sends one LM in a person phase,
// sent as one envelope that counts as len(batch) messages (charm.Ctx.SendN).
type visitBatch []visitMsg

// WireSize is one visit message in the paper's compact binary encoding —
// person, location, sublocations, times and disease parameters — not the
// Go struct, which carries a slot in place of the static fields.
func (visitBatch) WireSize() int { return 32 }

// infectMsg is one infect message (step 3): the DES's infection record,
// sent in place from the des.Result it was appended to.
type infectMsg des.Infection

// WireSize matches a compact binary encoding of the fields.
func (infectMsg) WireSize() int { return 16 }

// control messages the driver sends to the managers a day targets (see
// runDayStepped).
type msgComputeVisits struct{ Day int }
type msgRunDES struct{ Day int }
type msgApplyUpdates struct{ Day int }

// New validates the configuration and builds the engine: NewPlan, then
// the plan's New.
func New(cfg Config) (*Engine, error) {
	p, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	return p.New(cfg)
}

// New validates the configuration and builds an engine on the plan, of
// which cfg must name the population, rank maps, Ranks and ChareFactor.
// Engines built from one plan may run concurrently.
func (pl *Plan) New(cfg Config) (*Engine, error) {
	if err := pl.check(cfg); err != nil {
		return nil, err
	}
	if cfg.Disease == nil {
		cfg.Disease = disease.Default()
	}
	if err := cfg.Disease.Validate(); err != nil {
		return nil, fmt.Errorf("core: disease model: %w", err)
	}
	if cfg.Days <= 0 {
		cfg.Days = 120
	}
	cfg.Ranks, cfg.ChareFactor = pl.ranks, pl.chareFactor
	if cfg.InitialInfections <= 0 {
		cfg.InitialInfections = max(1, cfg.Population.NumPersons()/2000)
	}
	switch cfg.Kernel {
	case "", KernelDense, KernelAuto, KernelEvent:
	default:
		return nil, fmt.Errorf("core: unknown kernel %q (want dense, auto or event)", cfg.Kernel)
	}
	if cfg.Kernel == KernelEvent && cfg.Mixing > 0 {
		return nil, fmt.Errorf("core: kernel %q does not support inter-sublocation mixing", KernelEvent)
	}
	if cfg.KernelThreshold < 0 || cfg.KernelThreshold > 1 {
		return nil, fmt.Errorf("core: kernel threshold %g outside [0,1]", cfg.KernelThreshold)
	}
	if cfg.KernelThreshold == 0 {
		cfg.KernelThreshold = 0.01
	}
	if cfg.Route2D && cfg.AggBufferSize <= 0 {
		return nil, fmt.Errorf("core: 2D routing relays aggregation buffers and needs AggBufferSize > 0")
	}
	nP := cfg.Population.NumPersons()

	e := &Engine{cfg: cfg, pop: cfg.Population, model: cfg.Disease, plan: pl}
	e.rt = charm.New(charm.Config{
		PEs:           cfg.Ranks,
		Parallel:      cfg.Parallel,
		AggBufferSize: cfg.AggBufferSize,
		Route2D:       cfg.Route2D,
	})
	e.effects = interventions.NewEffects()
	e.isolated = make([]bool, e.model.NumStates())
	e.stateNames = make([]string, e.model.NumStates())
	e.stateKeys = make([]string, e.model.NumStates())
	for i := range e.stateNames {
		e.stateNames[i] = e.model.StateName(disease.StateID(i))
		e.stateKeys[i] = "state:" + e.stateNames[i]
	}
	if cfg.Mixing > 0 {
		e.fragments = pl.families()
	}

	// The two-level chare hierarchy (Figure 1): PMs and LMs.
	numPM := len(pl.personsOfPM)
	e.infectionBuf = make([][]infectMsg, numPM)
	e.pmArr = e.rt.NewArray(numPM, func(i int32) charm.Chare {
		return &personManager{eng: e, id: i, persons: pl.personsOfPM[i]}
	}, func(i int32) charm.PE { return i / int32(cfg.ChareFactor) })
	e.lmArr = e.rt.NewArray(len(pl.locsOfLM), func(i int32) charm.Chare {
		return newLocationManager(e, i, pl.locsOfLM[i])
	}, func(i int32) charm.PE { return i / int32(cfg.ChareFactor) })

	// Health state: everyone in the entry state, counted per PM, then the
	// index cases infected in person order, which keeps each PM's sparse
	// sets in person order.
	entry := e.model.Entry
	e.health = make([]personState, nP)
	e.infPos = make([]int32, nP)
	e.progPos = make([]int32, nP)
	for p := range e.health {
		e.health[p] = personState{State: entry, DaysLeft: -1}
		e.infPos[p] = -1
		e.progPos[p] = -1
	}
	e.stateInfectious = make([]bool, e.model.NumStates())
	for s := range e.stateInfectious {
		e.stateInfectious[s] = e.model.IsInfectious(disease.StateID(s))
	}
	e.pmHealth = make([]pmHealth, numPM)
	for pm, persons := range pl.personsOfPM {
		h := &e.pmHealth[pm]
		h.counts = make([]int64, e.model.NumStates())
		h.counts[entry] = int64(len(persons))
		if e.stateInfectious[entry] { // susceptible and infectious at once
			for _, p := range persons {
				sparseAdd(&h.infectious, e.infPos, p)
			}
		}
	}
	for p := int32(0); p < int32(nP); p++ {
		if xrand.KeyedIntn(nP, cfg.Seed, 0x5eed, uint64(p)) < cfg.InitialInfections {
			e.applyInfection(p, 0)
			e.cumulative++
		}
	}
	if e.cumulative == 0 { // guarantee at least one index case
		e.applyInfection(0, 0)
		e.cumulative++
	}
	// The event kernel starts engaged: seeding regimes are sparse by
	// construction, and the hysteresis latch takes over from day 1.
	e.eventOn = cfg.Kernel == KernelEvent
	return e, nil
}

// sparseAdd inserts p into a swap-removable sparse set (no-op when
// already present).
func sparseAdd(items *[]int32, pos []int32, p int32) {
	if pos[p] >= 0 {
		return
	}
	pos[p] = int32(len(*items))
	*items = append(*items, p)
}

// sparseRemove deletes p by swapping the last element into its slot
// (no-op when absent).
func sparseRemove(items *[]int32, pos []int32, p int32) {
	i := pos[p]
	if i < 0 {
		return
	}
	last := int32(len(*items) - 1)
	q := (*items)[last]
	(*items)[i] = q
	pos[q] = i
	*items = (*items)[:last]
	pos[p] = -1
}

// transitionPerson moves p to state s with the given dwell, keeping the
// per-PM incremental counters and sparse sets coherent. Every state
// mutation after the entry state must go through here (or applyInfection),
// on every kernel, so kernels can alternate day by day without a rescan.
func (e *Engine) transitionPerson(p int32, s disease.StateID, daysLeft int32) {
	hs := &e.health[p]
	h := &e.pmHealth[e.plan.pmOf[p]]
	old := hs.State
	if old != s {
		h.counts[old]--
		h.counts[s]++
		if e.stateInfectious[old] != e.stateInfectious[s] {
			if e.stateInfectious[s] {
				sparseAdd(&h.infectious, e.infPos, p)
			} else {
				sparseRemove(&h.infectious, e.infPos, p)
			}
		}
	}
	hs.State = s
	hs.DaysLeft = daysLeft
	if daysLeft >= 0 {
		sparseAdd(&h.progressing, e.progPos, p)
	} else {
		sparseRemove(&h.progressing, e.progPos, p)
	}
}

// applyInfection resolves a successful exposure of p on day — an index
// case's on day 0 — through the incremental bookkeeping.
func (e *Engine) applyInfection(p int32, day int) {
	e.transitionPerson(p, e.model.InfectTarget,
		int32(e.model.SampleDwell(e.model.InfectTarget, uint64(p), uint64(day))))
	e.health[p].Infected = true
}

// progressPerson advances p's dwell clock and PTTS transition for one
// day — the shared phase-3 progression step of every kernel.
func (e *Engine) progressPerson(p int32, day int) {
	hs := &e.health[p]
	if hs.DaysLeft > 0 {
		hs.DaysLeft--
	}
	if hs.DaysLeft == 0 {
		next, ok := e.model.NextState(hs.State, hs.Treatment, uint64(p), uint64(day))
		if ok {
			d := e.model.SampleDwell(next, uint64(p), uint64(day))
			nd := int32(d)
			if d > 1<<30 {
				nd = -1 // absorbing
			}
			e.transitionPerson(p, next, nd)
		} else {
			e.transitionPerson(p, hs.State, -1)
		}
	}
}

// RunDay executes a single simulated day (day numbers start at 1) and
// returns its report, for drivers that step or time days themselves;
// most callers use Run.
func (e *Engine) RunDay(day int) DayReport { return e.runDay(day) }

// Run executes the configured number of days. On an engine positioned at
// a checkpoint boundary (Restore or RunPrefix), it executes only the
// remaining days and prepends the prefix's reports, so the Result is the
// same either way.
func (e *Engine) Run() (*Result, error) {
	res := &Result{}
	if len(e.prefix) > 0 {
		res.Days = append(res.Days, e.prefix...)
	}
	for day := e.startDay + 1; day <= e.cfg.Days; day++ {
		res.Days = append(res.Days, e.runDay(day))
	}
	for _, rep := range res.Days {
		if rep.Kernel != "" {
			if res.KernelDays == nil {
				res.KernelDays = make(map[string]int64)
			}
			res.KernelDays[rep.Kernel]++
		}
	}
	res.TotalInfections = e.cumulative
	if n := e.pop.NumPersons(); n > 0 {
		res.AttackRate = float64(e.cumulative) / float64(n)
	}
	if len(res.Days) > 0 {
		res.FinalCounts = res.Days[len(res.Days)-1].Counts
	}
	return res, nil
}

// runDay dispatches one simulated day to the configured kernel.
func (e *Engine) runDay(day int) DayReport {
	e.stepped = true
	switch e.cfg.Kernel {
	case "":
		return e.runDayStepped(day, "", true)
	case KernelDense:
		return e.runDayStepped(day, KernelDense, true)
	case KernelEvent:
		prevalence := float64(e.infectiousCount()) / float64(max(1, e.pop.NumPersons()))
		if e.eventOn {
			if prevalence > eventExitFactor*e.cfg.KernelThreshold {
				e.eventOn = false
			}
		} else if prevalence < e.cfg.KernelThreshold {
			e.eventOn = true
		}
		if e.eventOn {
			return e.runDayEvent(day)
		}
	}
	// "auto", or "event" with its latch off: an active day, or a dense one
	// (byte-identical by construction) once the frontier is so large that
	// walking it stops paying for itself.
	if e.infectiousCount()*denseSwitchDen > int64(e.pop.NumPersons())*denseSwitchNum {
		return e.runDayStepped(day, KernelDense, true)
	}
	return e.runDayStepped(day, kernelActive, false)
}

// infectiousCount is the number of persons in a state-level infectious
// state (the prevalence measure of kernel switching).
func (e *Engine) infectiousCount() int64 {
	var n int64
	for pm := range e.pmHealth {
		n += int64(len(e.pmHealth[pm].infectious))
	}
	return n
}

// beginDay opens a day on every kernel: interventions trigger on the state
// of the world this morning, then the vaccination campaign they may have
// ordered runs, then keepVisit's tables are refreshed. A non-dense day also
// gets the active-set scratch and the location-ordered visits, allocated
// lazily, so purely dense runs pay nothing for them.
func (e *Engine) beginDay(day int, dense bool) {
	if e.cfg.Scenario != nil {
		e.cfg.Scenario.Step(interventions.Env{
			Day:                day,
			Population:         e.pop.NumPersons(),
			Counts:             e.countStates(),
			CumulativeInfected: int(e.cumulative),
		}, e.effects)
	}
	e.applyVaccination(day)
	e.refreshFilters()
	e.denseDay = dense
	if !dense && e.activeLoc == nil {
		e.activeLoc = make([]bool, e.pop.NumLocations())
		e.activeSlots = make([][]slotRef, len(e.pmHealth))
		e.lmNeeded = make([]bool, e.rt.ArrayLen(e.lmArr))
		e.visitIndex()
	}
}

// endDay closes a day on every kernel: state counts from the incremental
// counters, the per-day marks reset in O(active) time, timed interventions
// ticked.
func (e *Engine) endDay(rep *DayReport) {
	rep.Counts = e.stateCounts64()
	for _, locID := range e.activeLocList {
		e.activeLoc[locID] = false
	}
	e.activeLocList = e.activeLocList[:0]
	e.effects.Tick()
}

// applyVaccination runs the day's vaccination campaign: untreated
// persons get the treatment with probability VaccinateNow. It runs
// engine-side because the sparse kernels' person phases only reach active
// persons; the draw is keyed by (seed, person, day), so where in the day
// it is made cannot change it.
func (e *Engine) applyVaccination(day int) {
	vaccinate := e.effects.VaccinateNow
	if vaccinate <= 0 {
		return
	}
	vacID, hasVac := e.model.TreatmentByName("vaccinated")
	if !hasVac {
		return
	}
	for p := range e.health {
		hs := &e.health[p]
		if hs.Treatment != 0 {
			continue
		}
		if xrand.KeyedFloat64(0xacc1, e.cfg.Seed, uint64(p), uint64(day)) < vaccinate {
			hs.Treatment = vacID
		}
	}
}

// countStates sums the per-PM incremental counters — O(managers ×
// states) instead of the full-population rescan it replaced. Only
// occupied states appear in the map, matching the historical rescan.
func (e *Engine) countStates() map[string]int {
	counts := make(map[string]int, len(e.stateNames))
	for s, name := range e.stateNames {
		var n int64
		for pm := range e.pmHealth {
			n += e.pmHealth[pm].counts[s]
		}
		if n != 0 {
			counts[name] = int(n)
		}
	}
	return counts
}

// stateCounts64 builds the DayReport.Counts map from the incremental
// counters, with an entry for every state, zeros included.
func (e *Engine) stateCounts64() map[string]int64 {
	counts := make(map[string]int64, len(e.stateNames))
	for s, name := range e.stateNames {
		var n int64
		for pm := range e.pmHealth {
			n += e.pmHealth[pm].counts[s]
		}
		counts[name] = n
	}
	return counts
}
