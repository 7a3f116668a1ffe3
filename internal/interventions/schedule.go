// Typed intervention schedules: the structured counterpart of the DSL,
// used by the sweep's first-class intervention axis. A Schedule is a set
// of day-triggered actions (closures, vaccinations, quarantines) that
// compiles deterministically to DSL rules of the form
//
//	when day >= N { close school for 14 }
//
// so a scheduled branch runs through exactly the engine path a
// hand-written scenario does. Because every compiled condition is
// "day >= N" with N strictly after the sweep's fork day, a compiled
// branch provably cannot fire during the shared pre-fork prefix — the
// invariant fork-point checkpointing rests on.
package interventions

import (
	"fmt"
	"strconv"
	"strings"
)

// Closure closes all locations of a type for a number of days, starting
// on a fixed day.
type Closure struct {
	// LocType is the location type to close ("school", "work", ...).
	LocType string `json:"loc_type"`
	// Day is the first day the closure is in force (1-based, like the
	// engine's day numbering).
	Day int `json:"day"`
	// Days is the closure's duration.
	Days int `json:"days"`
}

// Vaccination vaccinates a fraction of the untreated population on a
// fixed day.
type Vaccination struct {
	Day      int     `json:"day"`
	Fraction float64 `json:"fraction"`
}

// Quarantine keeps people in a disease state home for a number of days,
// starting on a fixed day.
type Quarantine struct {
	// State is the disease state to isolate ("symptomatic", ...).
	State string `json:"state"`
	Day   int    `json:"day"`
	Days  int    `json:"days"`
}

// Schedule is a typed intervention program: fixed-day closures,
// vaccinations and quarantines. The zero value is the empty schedule (a
// baseline branch).
type Schedule struct {
	Closures     []Closure     `json:"closures,omitempty"`
	Vaccinations []Vaccination `json:"vaccinations,omitempty"`
	Quarantines  []Quarantine  `json:"quarantines,omitempty"`
}

// Validate checks the schedule against the DSL's own action rules plus
// the fork contract: every trigger day must lie strictly after forkDay,
// so the compiled rules cannot fire during the shared prefix (pass 0
// when there is no fork).
func (s *Schedule) Validate(forkDay int) error {
	for i, c := range s.Closures {
		if err := validIdent(c.LocType, "closure", i, "location type"); err != nil {
			return err
		}
		if err := validDays(c.Day, c.Days, "closure", i, forkDay); err != nil {
			return err
		}
	}
	for i, v := range s.Vaccinations {
		if v.Fraction < 0 || v.Fraction > 1 {
			return fmt.Errorf("interventions: vaccination %d: fraction %v outside [0,1]", i, v.Fraction)
		}
		if v.Day <= forkDay {
			return fmt.Errorf("interventions: vaccination %d: day %d must be after fork day %d", i, v.Day, forkDay)
		}
	}
	for i, q := range s.Quarantines {
		if err := validIdent(q.State, "quarantine", i, "disease state"); err != nil {
			return err
		}
		if err := validDays(q.Day, q.Days, "quarantine", i, forkDay); err != nil {
			return err
		}
	}
	return nil
}

func validIdent(name, what string, i int, field string) error {
	if name == "" {
		return fmt.Errorf("interventions: %s %d: missing %s", what, i, field)
	}
	for j := 0; j < len(name); j++ {
		c := name[j]
		ok := isAlpha(c) || (j > 0 && isDigit(c))
		if !ok {
			return fmt.Errorf("interventions: %s %d: %s %q is not an identifier", what, i, field, name)
		}
	}
	return nil
}

func validDays(day, days int, what string, i, forkDay int) error {
	if day <= forkDay {
		return fmt.Errorf("interventions: %s %d: day %d must be after fork day %d", what, i, day, forkDay)
	}
	if days < 1 {
		return fmt.Errorf("interventions: %s %d: duration %d must be at least one day", what, i, days)
	}
	return nil
}

// Compile renders the schedule as DSL source, one "when day >= N" rule
// per action in slice order (closures, then vaccinations, then
// quarantines). The output is deterministic — equal schedules compile to
// equal text — so it can participate in content keys. An empty schedule
// compiles to the empty string.
func (s *Schedule) Compile() string {
	var b strings.Builder
	for _, c := range s.Closures {
		fmt.Fprintf(&b, "when day >= %d { close %s for %d }\n", c.Day, c.LocType, c.Days)
	}
	for _, v := range s.Vaccinations {
		fmt.Fprintf(&b, "when day >= %d { vaccinate %s of people }\n",
			v.Day, strconv.FormatFloat(v.Fraction, 'g', -1, 64))
	}
	for _, q := range s.Quarantines {
		fmt.Fprintf(&b, "when day >= %d { isolate %s for %d }\n", q.Day, q.State, q.Days)
	}
	return b.String()
}

// FiredFlags returns each rule's one-shot latch in rule order — the
// scenario-side state a checkpoint must carry (Effects captures the
// consequences of fired rules; these flags keep the rules from firing
// again after a restore).
func (s *Scenario) FiredFlags() []bool {
	out := make([]bool, len(s.Rules))
	for i := range s.Rules {
		out[i] = s.Rules[i].fired
	}
	return out
}

// SetFiredFlags restores the fired latch of the FIRST len(flags) rules
// (later rules keep their current state). Restoring a checkpoint into a
// combined base+branch scenario passes the base scenario's flags: the
// branch's appended rules stay unfired, exactly as they were during the
// prefix they could not have fired in.
func (s *Scenario) SetFiredFlags(flags []bool) error {
	if len(flags) > len(s.Rules) {
		return fmt.Errorf("interventions: %d fired flags for %d rules", len(flags), len(s.Rules))
	}
	for i, f := range flags {
		s.Rules[i].fired = f
	}
	return nil
}
