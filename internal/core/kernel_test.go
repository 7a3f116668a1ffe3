package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/disease"
	"repro/internal/interventions"
	"repro/internal/splitloc"
	"repro/internal/stats"
)

// fullTrajectory compresses a result into every epidemic observable a
// kernel must reproduce exactly: per-day new infections plus the full
// per-day state-count map.
func fullTrajectory(t *testing.T, res *Result) []int64 {
	t.Helper()
	var sig []int64
	for _, d := range res.Days {
		sig = append(sig, d.NewInfections)
		for _, name := range []string{"susceptible", "latent", "infectious",
			"symptomatic", "asymptomatic", "recovered", "dead", "uninfected",
			"exposed", "immune"} {
			if c, ok := d.Counts[name]; ok {
				sig = append(sig, c)
			}
		}
	}
	sig = append(sig, res.TotalInfections)
	return sig
}

func seedModels(t *testing.T) map[string]*disease.Model {
	t.Helper()
	models := map[string]*disease.Model{"builtin-hot": hotModel()}
	paths, err := filepath.Glob("../../models/*.dm")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := disease.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		// The seed models are calibrated for metro-scale populations; scale
		// transmissibility up so a 3000-person test run actually spreads and
		// the kernels have infections to disagree about.
		m.Transmissibility *= 4
		models[filepath.Base(p)] = m
	}
	if len(models) < 2 {
		t.Fatal("no seed models found")
	}
	return models
}

func seedScenarios(t *testing.T) map[string]string {
	t.Helper()
	scenarios := map[string]string{"none": ""}
	paths, err := filepath.Glob("../../scenarios/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		scenarios[filepath.Base(p)] = string(b)
	}
	if len(scenarios) < 2 {
		t.Fatal("no seed scenarios found")
	}
	return scenarios
}

// TestKernelAutoMatchesDense is the tentpole oracle: the active-set
// stepper must be byte-identical to the dense kernel on every seed
// model, every seed scenario and across rank counts — same per-day new
// infections, same per-day state counts, same totals.
func TestKernelAutoMatchesDense(t *testing.T) {
	pop := testPop(t)
	models := seedModels(t)
	scenarios := seedScenarios(t)

	runPair := func(t *testing.T, cfg Config) {
		t.Helper()
		dense := cfg
		dense.Kernel = KernelDense
		auto := cfg
		auto.Kernel = KernelAuto
		dres := run(t, dense)
		if cfg.Scenario != nil {
			cfg.Scenario.Reset() // Rule firing is one-shot per Scenario value
		}
		ares := run(t, auto)
		if got, want := fullTrajectory(t, ares), fullTrajectory(t, dres); !sameSignature(got, want) {
			t.Fatalf("kernel=auto diverged from kernel=dense\nauto:  %v\ndense: %v", got, want)
		}
		if ares.KernelDays[kernelActive] == 0 {
			t.Fatalf("auto run never used the active stepper: %v", ares.KernelDays)
		}
	}

	withScenario := func(t *testing.T, src string, cfg Config) Config {
		t.Helper()
		if src != "" {
			sc, err := interventions.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scenario = sc
		}
		return cfg
	}

	for mname, m := range models {
		for sname, src := range scenarios {
			t.Run(mname+"/"+sname, func(t *testing.T) {
				runPair(t, withScenario(t, src, Config{Population: pop, Disease: m,
					Days: 18, Seed: 17, InitialInfections: 5, Ranks: 3}))
			})
		}
	}

	t.Run("ranks", func(t *testing.T) {
		for _, ranks := range []int{1, 8} {
			runPair(t, Config{Population: pop, Disease: hotModel(),
				Days: 18, Seed: 23, InitialInfections: 5, Ranks: ranks})
		}
	})

	t.Run("parallel", func(t *testing.T) {
		// The second input vaccinates: Parallel × vaccination × dense-vs-auto.
		for _, src := range []string{"", scenarios["pandemic-response.txt"]} {
			runPair(t, withScenario(t, src, Config{Population: pop, Disease: hotModel(),
				Days: 18, Seed: 23, InitialInfections: 5, Ranks: 4, Parallel: true}))
		}
	})

	t.Run("mixing-split", func(t *testing.T) {
		split, st, err := splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: 2048})
		if err != nil {
			t.Fatal(err)
		}
		if st.NumSplit == 0 {
			t.Skip("nothing split")
		}
		runPair(t, Config{Population: split, Disease: hotModel(),
			Days: 15, Seed: 31, InitialInfections: 5, Ranks: 5, Mixing: 0.3})
	})
}

// TestKernelAutoReducesWork pins the mechanism behind the speedup, not
// just the equivalence: with one index case, the active-set stepper must
// move far fewer phase-1 messages than the dense broadcast over the
// same days.
func TestKernelAutoReducesWork(t *testing.T) {
	pop := testPop(t)
	mk := func(kernel string) Config {
		return Config{Population: pop, Disease: hotModel(), Kernel: kernel,
			Days: 10, Seed: 5, InitialInfections: 1, Ranks: 3}
	}
	dres := run(t, mk(KernelDense))
	ares := run(t, mk(KernelAuto))
	var dmsg, amsg int64
	for i := range dres.Days {
		dmsg += dres.Days[i].PersonPhase.Messages
		amsg += ares.Days[i].PersonPhase.Messages
	}
	if amsg*2 > dmsg {
		t.Fatalf("active stepper moved %d visit messages vs dense %d; want < half", amsg, dmsg)
	}
}

// TestKernelAutoDenseFallbackAddsNoWork pins the other half of the auto
// kernel's contract, as work counts rather than wall clock: seeded deep
// in fallback territory, every day that opens with more than
// denseSwitchNum/denseSwitchDen of the population infectious must run
// as a plain dense day — labelled dense and moving exactly the dense
// run's messages in both phases.
func TestKernelAutoDenseFallbackAddsNoWork(t *testing.T) {
	pop := testPop(t)
	m := hotModel()
	mk := func(kernel string) Config {
		return Config{Population: pop, Disease: m, Kernel: kernel,
			Days: 10, Seed: 5, InitialInfections: pop.NumPersons() / 2, Ranks: 3}
	}
	dres := run(t, mk(KernelDense))
	ares := run(t, mk(KernelAuto))
	fallbackDays := 0
	for i := 1; i < len(ares.Days); i++ {
		// Yesterday's closing counts are this morning's prevalence, the
		// quantity runDay switches on.
		var infectious int64
		for s, st := range m.States {
			if m.IsInfectious(disease.StateID(s)) {
				infectious += ares.Days[i-1].Counts[st.Name]
			}
		}
		if infectious*denseSwitchDen <= int64(pop.NumPersons())*denseSwitchNum {
			continue
		}
		fallbackDays++
		a, d := ares.Days[i], dres.Days[i]
		if a.Kernel != KernelDense {
			t.Errorf("day %d: %d of %d infectious but kernel %q, want %q",
				a.Day, infectious, pop.NumPersons(), a.Kernel, KernelDense)
		}
		if a.PersonPhase.Messages != d.PersonPhase.Messages ||
			a.LocationPhase.Messages != d.LocationPhase.Messages {
			t.Errorf("day %d: auto moved %d person / %d location messages, dense %d / %d",
				a.Day, a.PersonPhase.Messages, a.LocationPhase.Messages,
				d.PersonPhase.Messages, d.LocationPhase.Messages)
		}
	}
	if fallbackDays == 0 {
		t.Fatal("seeding never pushed prevalence above the dense-fallback threshold")
	}
}

// TestIncrementalCountsMatchRescan pins the incremental per-state
// counters (which now feed both scenario triggers and day reports)
// against a full rescan of the health array, after days that include
// infections, progressions and interventions.
func TestIncrementalCountsMatchRescan(t *testing.T) {
	pop := testPop(t)
	sc, err := interventions.Parse(mustRead(t, "../../scenarios/pandemic-response.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []string{KernelDense, KernelAuto, KernelEvent} {
		e, err := New(Config{Population: pop, Disease: hotModel(), Scenario: sc,
			Days: 20, Seed: 9, InitialInfections: 5, Ranks: 3, Kernel: kernel})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		rescan := make(map[string]int, len(e.stateNames))
		for p := range e.health {
			rescan[e.stateNames[e.health[p].State]]++
		}
		got := e.countStates()
		if len(got) != len(rescan) {
			t.Fatalf("kernel %s: incremental counts %v, rescan %v", kernel, got, rescan)
		}
		for name, n := range rescan {
			if got[name] != n {
				t.Fatalf("kernel %s: incremental counts %v, rescan %v", kernel, got, rescan)
			}
		}
	}
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEventKernelStatisticalEquivalence is the Gillespie oracle: over a
// set of seeds, the event kernel's attack-rate and peak-day confidence
// intervals must overlap the dense kernel's. KernelThreshold 1 keeps the
// event path engaged for the whole run, so the test exercises it alone
// rather than the hybrid.
func TestEventKernelStatisticalEquivalence(t *testing.T) {
	pop := testPop(t)
	var denseAttack, eventAttack, densePeak, eventPeak []float64
	for seed := uint64(1); seed <= 8; seed++ {
		mk := func(kernel string, thr float64) Config {
			return Config{Population: pop, Disease: hotModel(),
				Days: 30, Seed: seed, InitialInfections: 5, Ranks: 3,
				Kernel: kernel, KernelThreshold: thr}
		}
		dres := run(t, mk(KernelDense, 0))
		eres := run(t, mk(KernelEvent, 1))
		if eres.KernelDays[KernelEvent] != int64(len(eres.Days)) {
			t.Fatalf("seed %d: event run used kernels %v, want all %d days event",
				seed, eres.KernelDays, len(eres.Days))
		}
		denseAttack = append(denseAttack, dres.AttackRate)
		eventAttack = append(eventAttack, eres.AttackRate)
		densePeak = append(densePeak, peakDay(dres))
		eventPeak = append(eventPeak, peakDay(eres))
	}
	assertOverlap := func(what string, a, b []float64) {
		t.Helper()
		ca := stats.MeanCI(a, 0.99)
		cb := stats.MeanCI(b, 0.99)
		if ca.Lo > cb.Hi || cb.Lo > ca.Hi {
			t.Fatalf("%s CIs do not overlap: dense [%v, %v] vs event [%v, %v]",
				what, ca.Lo, ca.Hi, cb.Lo, cb.Hi)
		}
	}
	assertOverlap("attack rate", denseAttack, eventAttack)
	assertOverlap("peak day", densePeak, eventPeak)
}

func peakDay(res *Result) float64 {
	day, peak := 0, int64(-1)
	for _, d := range res.Days {
		if d.NewInfections > peak {
			peak, day = d.NewInfections, d.Day
		}
	}
	return float64(day)
}

// TestEventKernelHysteresis drives prevalence through the threshold band
// and asserts the run actually switches kernels (event days and
// non-event days both present) instead of flapping into one mode.
func TestEventKernelHysteresis(t *testing.T) {
	pop := testPop(t)
	res := run(t, Config{Population: pop, Disease: hotModel(),
		Days: 40, Seed: 1, InitialInfections: 5, Ranks: 3,
		Kernel: KernelEvent, KernelThreshold: 0.002})
	if res.KernelDays[KernelEvent] == 0 {
		t.Fatalf("no event days: %v", res.KernelDays)
	}
	if res.KernelDays[kernelActive]+res.KernelDays[KernelDense] == 0 {
		t.Fatalf("epidemic never left the event kernel: %v", res.KernelDays)
	}
	if res.TotalInfections < 50 {
		t.Fatalf("hybrid run did not spread: %d infections", res.TotalInfections)
	}
}

// TestGillespieRunBuildsNoSchedule: the location phase's static schedule
// is built by the first day that runs a location phase, so an engine whose
// days are all Gillespie never pays for it, nor does an active day whose
// frontier is empty, and the first active day with one does.
func TestGillespieRunBuildsNoSchedule(t *testing.T) {
	pop := testPop(t)
	cfg := Config{Population: pop, Disease: hotModel(), Days: 10, Seed: 3,
		InitialInfections: 5, Ranks: 3, Kernel: KernelEvent, KernelThreshold: 1}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelDays[KernelEvent] != int64(cfg.Days) || res.TotalInfections <= int64(cfg.InitialInfections) {
		t.Fatalf("want %d event days that spread the epidemic: kernels %v, %d infections", cfg.Days, res.KernelDays, res.TotalInfections)
	}
	if e.sched != nil || e.pmSlots != nil {
		t.Fatal("an all-Gillespie run built the static schedule")
	}

	cfg.Kernel = KernelAuto
	if e, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= cfg.Days; day++ {
		rep := e.RunDay(day)
		if rep.Kernel != kernelActive {
			t.Fatalf("day %d ran on kernel %q", day, rep.Kernel)
		}
		if ran := rep.Events > 0; (e.sched != nil) != ran {
			t.Fatalf("day %d: location phase %v, schedule built %v", day, ran, e.sched != nil)
		}
		if e.sched != nil {
			return
		}
	}
	t.Fatal("no active day ran a location phase")
}

func TestKernelValidation(t *testing.T) {
	pop := testPop(t)
	base := Config{Population: pop, Disease: hotModel(), Days: 1, Ranks: 1}

	bad := base
	bad.Kernel = "gillespie"
	if _, err := New(bad); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	bad = base
	bad.Kernel = KernelEvent
	bad.Mixing = 0.5
	if _, err := New(bad); err == nil {
		t.Fatal("event kernel with mixing accepted")
	}
	bad = base
	bad.KernelThreshold = 1.5
	if _, err := New(bad); err == nil {
		t.Fatal("out-of-range kernel threshold accepted")
	}
}

// TestDefaultKernelReportsUnlabeled pins the compatibility contract: a
// config that never mentions kernels produces exactly the historical
// report shape — no per-day kernel labels, no KernelDays map.
func TestDefaultKernelReportsUnlabeled(t *testing.T) {
	pop := testPop(t)
	res := run(t, Config{Population: pop, Disease: hotModel(),
		Days: 5, Seed: 2, InitialInfections: 5, Ranks: 2})
	if res.KernelDays != nil {
		t.Fatalf("default run has KernelDays %v", res.KernelDays)
	}
	for _, d := range res.Days {
		if d.Kernel != "" {
			t.Fatalf("default run labeled day %d as %q", d.Day, d.Kernel)
		}
	}
}
