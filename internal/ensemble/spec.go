// Package ensemble turns the single-run engine into a scenario-sweep
// system: a declarative SweepSpec expresses grids over populations,
// data-distribution options, disease models, intervention scenarios and
// seeded replicates; a bounded worker pool executes the grid with a
// content-keyed cache so each unique (population, placement) pair is
// generated and partitioned exactly once; and per-cell streaming
// aggregation reduces replicate results to mean/quantile epidemic curves
// and attack-rate confidence intervals without retaining every Result in
// memory.
//
// The package is deliberately independent of the repository's root
// package (which would be an import cycle): the operations that live
// there — population generation, placement construction, the fork-day
// checkpoint and the simulation itself, as Start then Finish on every
// replicate — are injected through Hooks. The public surface is
// episim.RunSweep, which wires the real engine in.
//
// RunContext and WarmContext share one prologue (prepare) and one
// context-aware worker pool (dispatch). A replicate that fails or panics
// fails its own cell and nothing else: the panic, with its stack, becomes
// the cell's CellResult.Error, and a build that panics releases every
// sweep waiting on its cache key with the same error. A panic in the
// caller's OnCell becomes the sweep's error, and the other cells run on.
package ensemble

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/disease"
	"repro/internal/interventions"
	"repro/internal/xrand"
)

// PopulationSpec names one synthetic population of the grid: either a
// Table I state preset (State + Scale) or a custom population
// (Name + People + Locations).
type PopulationSpec struct {
	// State is a Table I preset name ("US", "CA", ..., "WY"); Scale is the
	// 1:Scale sampling divisor.
	State string `json:"state,omitempty"`
	Scale int    `json:"scale,omitempty"`
	// Name/People/Locations describe a custom population, used when State
	// is empty.
	Name      string `json:"name,omitempty"`
	People    int    `json:"people,omitempty"`
	Locations int    `json:"locations,omitempty"`
	// Seed overrides the master seed for population synthesis (0 = use the
	// sweep's master seed).
	Seed uint64 `json:"seed,omitempty"`
}

// Label is the human-readable population name ("WY/1:400" or "custom").
func (p PopulationSpec) Label() string {
	if p.State != "" {
		return fmt.Sprintf("%s/1:%d", p.State, p.Scale)
	}
	if p.Name != "" {
		return p.Name
	}
	return "custom"
}

// Key is the content key of the population: every field that affects
// generation participates, so equal keys mean identical populations.
func (p PopulationSpec) Key(masterSeed uint64) string {
	seed := p.Seed
	if seed == 0 {
		seed = masterSeed
	}
	if p.State != "" {
		return fmt.Sprintf("state=%s scale=%d seed=%d", p.State, p.Scale, seed)
	}
	return fmt.Sprintf("name=%s people=%d locations=%d seed=%d", p.Name, p.People, p.Locations, seed)
}

// PlacementSpec names one data-distribution option combination of
// Section III.
type PlacementSpec struct {
	// Strategy is "RR" or "GP".
	Strategy string `json:"strategy"`
	// SplitLoc applies heavy-location splitting first (Section III-C).
	SplitLoc bool `json:"splitloc,omitempty"`
	Ranks    int  `json:"ranks"`
	// Imbalance is the partitioner's balance tolerance ε (0 = default).
	Imbalance float64 `json:"imbalance,omitempty"`
}

// Label is the paper's label plus the rank count: "GP-splitLoc×64".
func (p PlacementSpec) Label() string {
	l := strings.ToUpper(p.Strategy)
	if p.SplitLoc {
		l += "-splitLoc"
	}
	return fmt.Sprintf("%s×%d", l, p.Ranks)
}

// Key is the placement's content key relative to a population key: two
// equal keys produce identical placements, so the build cache may share
// them read-only.
func (p PlacementSpec) Key(popKey string) string {
	return fmt.Sprintf("%s | strategy=%s splitloc=%v ranks=%d imbalance=%g",
		popKey, strings.ToUpper(p.Strategy), p.SplitLoc, p.Ranks, p.Imbalance)
}

// ModelSpec names one disease model of the grid.
type ModelSpec struct {
	Name string `json:"name"`
	// Text is a full disease-model DSL program; empty uses the built-in
	// default ILI model.
	Text string `json:"text,omitempty"`
	// Transmissibility, when > 0, overrides the model's τ — the common
	// one-knob sensitivity sweep.
	Transmissibility float64 `json:"transmissibility,omitempty"`
}

// Resolve parses the model text (or takes the default model) and applies
// overrides, returning a model private to this spec.
func (m ModelSpec) Resolve() (*disease.Model, error) {
	model := disease.Default()
	if strings.TrimSpace(m.Text) != "" {
		var err error
		model, err = disease.ParseString(m.Text)
		if err != nil {
			return nil, fmt.Errorf("ensemble: model %q: %w", m.Name, err)
		}
	}
	if m.Transmissibility > 0 {
		model.Transmissibility = m.Transmissibility
	}
	return model, nil
}

// ScenarioSpec names one intervention scenario of the grid. An empty
// Text is the unmitigated baseline.
type ScenarioSpec struct {
	Name string `json:"name"`
	Text string `json:"text,omitempty"`
}

// InterventionSpec is one branch of the sweep's intervention axis: a
// named, typed schedule of closures, vaccinations and quarantines. The
// schedule compiles onto the cell's scenario text, so a branch runs
// through exactly the engine path a hand-written scenario does; an empty
// schedule is the do-nothing counterfactual baseline.
type InterventionSpec struct {
	Name string `json:"name,omitempty"`
	interventions.Schedule
}

// Spec is a declarative scenario sweep: the cross product of
// Populations × Placements × Models × Scenarios × Interventions, with
// Replicates seeded replicates per cell.
type Spec struct {
	Populations []PopulationSpec `json:"populations"`
	Placements  []PlacementSpec  `json:"placements"`
	// Models defaults to the single built-in model when empty.
	Models []ModelSpec `json:"models,omitempty"`
	// Scenarios defaults to the single unmitigated baseline when empty.
	Scenarios []ScenarioSpec `json:"scenarios,omitempty"`
	// Interventions, when present, adds a first-class intervention axis:
	// each entry forks one branch per (population, placement, model,
	// scenario) cell. Every branch trigger must lie strictly after
	// ForkDay, so all branches of a cell share the identical pre-fork
	// prefix and the executor can simulate it once (version 2 specs; an
	// absent axis is the legacy version 1 grid, byte-identical as before).
	Interventions []InterventionSpec `json:"interventions,omitempty"`
	// ForkDay is the day boundary the intervention branches fork from
	// (0 = fork at the initial state). Requires an explicit Days.
	ForkDay int `json:"fork_day,omitempty"`

	Replicates        int    `json:"replicates"`
	Days              int    `json:"days"`
	Seed              uint64 `json:"seed"`
	InitialInfections int    `json:"initial_infections,omitempty"`
	// AggBufferSize and Mixing are forwarded to every simulation.
	AggBufferSize int     `json:"agg_buffer,omitempty"`
	Mixing        float64 `json:"mixing,omitempty"`
	// Kernel selects the simulation kernel for every replicate: "" or
	// "dense", "auto" (byte-identical active-set stepping) or "event"
	// (Gillespie below the prevalence threshold, statistically
	// equivalent). KernelThreshold gates the event kernel (0 = engine
	// default).
	Kernel          string  `json:"kernel,omitempty"`
	KernelThreshold float64 `json:"kernel_threshold,omitempty"`

	// Workers bounds the executor's concurrency (0 = GOMAXPROCS, 1 =
	// sequential). Results are byte-identical for any worker count.
	Workers int `json:"workers,omitempty"`
	// Quantiles are the per-day epidemic-curve quantiles to report
	// (default 0.1, 0.5, 0.9).
	Quantiles []float64 `json:"quantiles,omitempty"`
	// Confidence is the attack-rate confidence level (default 0.95).
	Confidence float64 `json:"confidence,omitempty"`
}

// clone returns a copy of the spec whose slices are private, so
// normalization and result embedding never alias the caller's data.
func (s *Spec) clone() *Spec {
	c := *s
	c.Populations = append([]PopulationSpec(nil), s.Populations...)
	c.Placements = append([]PlacementSpec(nil), s.Placements...)
	c.Models = append([]ModelSpec(nil), s.Models...)
	c.Scenarios = append([]ScenarioSpec(nil), s.Scenarios...)
	c.Interventions = append([]InterventionSpec(nil), s.Interventions...)
	c.Quantiles = append([]float64(nil), s.Quantiles...)
	return &c
}

// Version reports the spec's wire version: 1 for the legacy grid, 2 when
// the intervention axis is in use. One decode path accepts both; the
// version is surfaced in submit/status replies so clients can tell which
// semantics a stored sweep ran under.
func (s *Spec) Version() int {
	if len(s.Interventions) > 0 || s.ForkDay > 0 {
		return 2
	}
	return 1
}

// Normalize fills defaulted fields in place.
func (s *Spec) Normalize() {
	if len(s.Models) == 0 {
		s.Models = []ModelSpec{{Name: "default"}}
	}
	if len(s.Scenarios) == 0 {
		s.Scenarios = []ScenarioSpec{{Name: "baseline"}}
	}
	if s.Replicates <= 0 {
		s.Replicates = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Quantiles) == 0 {
		s.Quantiles = []float64{0.1, 0.5, 0.9}
	}
	if s.Confidence <= 0 || s.Confidence >= 1 {
		s.Confidence = 0.95
	}
	// Only name interventions when the axis is present: a legacy spec must
	// normalize to exactly its historical form, byte for byte.
	for i := range s.Interventions {
		if s.Interventions[i].Name == "" {
			s.Interventions[i].Name = fmt.Sprintf("iv%d", i)
		}
	}
}

// Validate checks the spec's structural invariants. It parses every
// model and scenario so grid-wide input errors surface before any
// simulation work starts.
func (s *Spec) Validate() error {
	if len(s.Populations) == 0 {
		return fmt.Errorf("ensemble: spec has no populations")
	}
	if len(s.Placements) == 0 {
		return fmt.Errorf("ensemble: spec has no placements")
	}
	for _, p := range s.Populations {
		if p.State != "" && p.Scale <= 0 {
			return fmt.Errorf("ensemble: population %q needs a positive scale", p.State)
		}
		if p.State == "" && (p.People <= 0 || p.Locations <= 0) {
			return fmt.Errorf("ensemble: custom population %q needs people and locations", p.Name)
		}
	}
	for _, p := range s.Placements {
		switch strings.ToUpper(p.Strategy) {
		case "RR", "GP":
		default:
			return fmt.Errorf("ensemble: unknown strategy %q (want RR or GP)", p.Strategy)
		}
		if p.Ranks < 1 {
			return fmt.Errorf("ensemble: placement %s needs at least one rank", p.Label())
		}
	}
	for _, m := range s.Models {
		if _, err := m.Resolve(); err != nil {
			return err
		}
	}
	for _, sc := range s.Scenarios {
		if strings.TrimSpace(sc.Text) == "" {
			continue
		}
		if _, err := interventions.Parse(sc.Text); err != nil {
			return fmt.Errorf("ensemble: scenario %q: %w", sc.Name, err)
		}
	}
	for _, q := range s.Quantiles {
		if q < 0 || q > 1 {
			return fmt.Errorf("ensemble: quantile %v outside [0,1]", q)
		}
	}
	switch s.Kernel {
	case "", "dense", "auto", "event":
	default:
		return fmt.Errorf("ensemble: unknown kernel %q (want dense, auto or event)", s.Kernel)
	}
	if s.Kernel == "event" && s.Mixing > 0 {
		return fmt.Errorf("ensemble: kernel \"event\" does not support mixing")
	}
	if s.KernelThreshold < 0 || s.KernelThreshold > 1 {
		return fmt.Errorf("ensemble: kernel threshold %v outside [0,1]", s.KernelThreshold)
	}
	if s.ForkDay < 0 {
		return fmt.Errorf("ensemble: fork day %d is negative", s.ForkDay)
	}
	if s.ForkDay > 0 && len(s.Interventions) == 0 {
		return fmt.Errorf("ensemble: fork day %d without an intervention axis", s.ForkDay)
	}
	if len(s.Interventions) > 0 {
		if s.Days <= 0 {
			return fmt.Errorf("ensemble: the intervention axis requires an explicit days")
		}
		if s.ForkDay >= s.Days {
			return fmt.Errorf("ensemble: fork day %d must lie before the %d-day horizon", s.ForkDay, s.Days)
		}
		seen := map[string]bool{}
		for i := range s.Interventions {
			iv := &s.Interventions[i]
			if seen[iv.Name] {
				return fmt.Errorf("ensemble: duplicate intervention name %q", iv.Name)
			}
			seen[iv.Name] = true
			if err := iv.Schedule.Validate(s.ForkDay); err != nil {
				return fmt.Errorf("ensemble: intervention %q: %w", iv.Name, err)
			}
		}
	}
	return nil
}

// Cell is one point of the sweep grid.
type Cell struct {
	Index      int
	Population PopulationSpec
	Placement  PlacementSpec
	Model      ModelSpec
	Scenario   ScenarioSpec
	// Intervention is the cell's branch of the intervention axis; nil on
	// legacy (version 1) grids.
	Intervention *InterventionSpec

	// modelIdx is the Model's position in Spec.Models, set by Cells; the
	// executor uses it to share one resolved model per spec entry.
	modelIdx int
}

// Label is the cell's human-readable coordinates.
func (c Cell) Label() string {
	l := fmt.Sprintf("%s %s %s %s",
		c.Population.Label(), c.Placement.Label(), c.Model.Name, c.Scenario.Name)
	if c.Intervention != nil {
		l += " " + c.Intervention.Name
	}
	return l
}

// InterventionName is the cell's intervention-axis coordinate ("" on
// legacy grids).
func (c Cell) InterventionName() string {
	if c.Intervention == nil {
		return ""
	}
	return c.Intervention.Name
}

// CheckpointKey is the content key of the fork-point checkpoint a
// cell's replicate resumes from. Everything the prefix trajectory
// depends on participates — the placement key (which covers the
// population), the model, the base scenario text, the replicate seed and
// every forwarded engine knob — but NOT the intervention branch (all
// branches share the prefix; that is the point) and NOT the horizon
// Days, so a later sweep with a longer horizon reuses the same
// checkpoint.
func (c Cell) CheckpointKey(spec *Spec, plKey string, seed uint64) string {
	return fmt.Sprintf("%s | model=%s/%x tx=%g scenario=%x seed=%d init=%d mix=%g agg=%d kernel=%s/%g fork=%d",
		plKey, c.Model.Name, hashString(c.Model.Text), c.Model.Transmissibility,
		hashString(c.Scenario.Text), seed, spec.InitialInfections, spec.Mixing,
		spec.AggBufferSize, spec.Kernel, spec.KernelThreshold, spec.ForkDay)
}

// ReplicateSeed derives the simulation seed of one replicate. It is
// keyed by content (not grid index), so adding rows to the sweep never
// changes the seeds — and hence the trajectories — of existing cells.
//
// Deliberately, only the population and model participate: replicate r
// uses the same seed across every placement and scenario. Across
// placements this turns the engine's distribution-invariance guarantee
// into a sweep-level oracle (RR and GP cells of the same scenario must
// aggregate identically); across scenarios it is common random numbers,
// the standard variance-reduction for intervention comparison — each
// scenario is evaluated against the same stream of epidemics, so
// replicate-paired differences isolate the intervention's effect.
func (c Cell) ReplicateSeed(master uint64, replicate int) uint64 {
	seed := xrand.Hash(0x5eed5, master,
		hashString(c.Population.Key(master)),
		hashString(c.Model.Name), hashString(c.Model.Text),
		uint64(replicate))
	if seed == 0 {
		seed = 1
	}
	return seed
}

// Cells enumerates the grid in deterministic order: populations outermost
// (so cache-cold population builds cluster), then placements, models,
// scenarios, intervention branches innermost (so the branches sharing a
// fork-point checkpoint cluster too).
func (s *Spec) Cells() []Cell {
	var cells []Cell
	for _, pop := range s.Populations {
		for _, pl := range s.Placements {
			for mi, m := range s.Models {
				for _, sc := range s.Scenarios {
					for ii := range s.Interventions {
						cells = append(cells, Cell{
							Index:        len(cells),
							Population:   pop,
							Placement:    pl,
							Model:        m,
							Scenario:     sc,
							Intervention: &s.Interventions[ii],
							modelIdx:     mi,
						})
					}
					if len(s.Interventions) == 0 {
						cells = append(cells, Cell{
							Index:      len(cells),
							Population: pop,
							Placement:  pl,
							Model:      m,
							Scenario:   sc,
							modelIdx:   mi,
						})
					}
				}
			}
		}
	}
	return cells
}

// hashString folds a string into a 64-bit key (FNV-1a) for xrand.Hash.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// ParseSpec decodes a Spec from JSON, rejecting unknown fields so typos
// in sweep files fail loudly.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("ensemble: parse spec: %w", err)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode writes the spec as indented JSON.
func (s *Spec) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
