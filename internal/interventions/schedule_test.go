package interventions

import (
	"strings"
	"testing"
)

func TestScheduleCompileParses(t *testing.T) {
	s := Schedule{
		Closures:     []Closure{{LocType: "school", Day: 10, Days: 14}, {LocType: "work", Day: 12, Days: 7}},
		Vaccinations: []Vaccination{{Day: 11, Fraction: 0.25}, {Day: 15, Fraction: 5e-05}},
		Quarantines:  []Quarantine{{State: "symptomatic", Day: 10, Days: 30}},
	}
	if err := s.Validate(9); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	src := s.Compile()
	scn, err := Parse(src)
	if err != nil {
		t.Fatalf("compiled schedule does not parse: %v\n%s", err, src)
	}
	if got, want := len(scn.Rules), 5; got != want {
		t.Fatalf("compiled %d rules, want %d", got, want)
	}
	// Every compiled rule is a pure day trigger: firing on its day must
	// apply exactly the scheduled action.
	eff := NewEffects()
	scn.Step(Env{Day: 12, Population: 100}, eff)
	if !eff.Closed("school") || !eff.Closed("work") {
		t.Errorf("day 12: school/work should be closed: %+v", eff.ClosedFor)
	}
	if eff.VaccinateNow != 0.25 {
		t.Errorf("day 12: VaccinateNow = %v, want 0.25", eff.VaccinateNow)
	}
	if !eff.Isolated("symptomatic") {
		t.Errorf("day 12: symptomatic should be isolated")
	}
}

func TestScheduleCompileDeterministic(t *testing.T) {
	s := Schedule{Closures: []Closure{{LocType: "school", Day: 3, Days: 5}}}
	if a, b := s.Compile(), s.Compile(); a != b {
		t.Fatalf("Compile not deterministic:\n%q\n%q", a, b)
	}
}

func TestScheduleEmpty(t *testing.T) {
	var s Schedule
	if got := s.Compile(); got != "" {
		t.Fatalf("empty schedule compiled to %q", got)
	}
	if err := s.Validate(0); err != nil {
		t.Fatalf("empty schedule should validate: %v", err)
	}
}

func TestScheduleValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		s       Schedule
		forkDay int
	}{
		{"closure at fork day", Schedule{Closures: []Closure{{LocType: "school", Day: 5, Days: 3}}}, 5},
		{"closure before fork day", Schedule{Closures: []Closure{{LocType: "school", Day: 2, Days: 3}}}, 5},
		{"zero duration", Schedule{Closures: []Closure{{LocType: "school", Day: 6, Days: 0}}}, 5},
		{"bad identifier", Schedule{Closures: []Closure{{LocType: "sch ool", Day: 6, Days: 3}}}, 5},
		{"leading digit", Schedule{Quarantines: []Quarantine{{State: "9ill", Day: 6, Days: 3}}}, 5},
		{"empty identifier", Schedule{Quarantines: []Quarantine{{State: "", Day: 6, Days: 3}}}, 5},
		{"fraction above one", Schedule{Vaccinations: []Vaccination{{Day: 6, Fraction: 1.5}}}, 5},
		{"vaccination at day zero", Schedule{Vaccinations: []Vaccination{{Day: 0, Fraction: 0.5}}}, 0},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(tc.forkDay); err == nil {
			t.Errorf("%s: Validate(%d) accepted %+v", tc.name, tc.forkDay, tc.s)
		}
	}
}

func TestFiredFlagsRoundTrip(t *testing.T) {
	scn, err := Parse("when day >= 1 { close school for 2 }\nwhen day >= 100 { close work for 2 }")
	if err != nil {
		t.Fatal(err)
	}
	scn.Step(Env{Day: 5, Population: 10}, NewEffects())
	flags := scn.FiredFlags()
	if !flags[0] || flags[1] {
		t.Fatalf("FiredFlags = %v, want [true false]", flags)
	}
	// Restore into a longer scenario: base flags land on the first rules,
	// appended rules stay untouched.
	combined, err := Parse(strings.Join([]string{
		"when day >= 1 { close school for 2 }",
		"when day >= 100 { close work for 2 }",
		"when day >= 10 { vaccinate 0.1 of people }",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := combined.SetFiredFlags(flags); err != nil {
		t.Fatal(err)
	}
	got := combined.FiredFlags()
	want := []bool{true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after SetFiredFlags: %v, want %v", got, want)
		}
	}
	if err := combined.SetFiredFlags(make([]bool, 4)); err == nil {
		t.Fatal("SetFiredFlags should reject more flags than rules")
	}
}
