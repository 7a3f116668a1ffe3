package disease

import (
	"fmt"
	"strings"
	"testing"
)

const fluText = `
# influenza-like illness with vaccination
model flu
transmissibility 4.5e-5
treatment vaccinated susceptibility 0.3 infectivity 0.5

state susceptible
  susceptibility 1.0
  dwell forever

state latent
  dwell uniform 1 3
  next infectious 1.0

state infectious
  infectivity 1.0
  dwell fixed 1
  next symptomatic 0.66
  next asymptomatic 0.34
  next[vaccinated] symptomatic 0.25
  next[vaccinated] asymptomatic 0.75

state symptomatic
  infectivity 1.5
  dwell uniform 3 6
  next recovered 1.0

state asymptomatic
  infectivity 0.5
  dwell geometric 2 2
  next recovered 1.0

state recovered
  dwell forever

entry susceptible
infect latent
`

func TestParseFlu(t *testing.T) {
	m, err := ParseString(fluText)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "flu" {
		t.Fatalf("name = %q", m.Name)
	}
	if m.Transmissibility != 4.5e-5 {
		t.Fatalf("tau = %v", m.Transmissibility)
	}
	if m.NumStates() != 6 {
		t.Fatalf("states = %d", m.NumStates())
	}
	if len(m.Treatments) != 2 || m.Treatments[1].Name != "vaccinated" {
		t.Fatalf("treatments = %+v", m.Treatments)
	}
	inf, _ := m.StateByName("infectious")
	if len(m.States[inf].Transitions) != 2 {
		t.Fatalf("infectious transition sets = %d", len(m.States[inf].Transitions))
	}
	if m.States[inf].Transitions[1][0].Prob != 0.25 {
		t.Fatal("vaccinated transition probability wrong")
	}
	asym, _ := m.StateByName("asymptomatic")
	if m.States[asym].Dwell.Kind != DwellGeometric {
		t.Fatal("geometric dwell lost")
	}
}

func TestParseForwardReferences(t *testing.T) {
	// "next recovered" appears before "state recovered" in fluText; already
	// covered, but also check entry/infect referencing late states.
	m, err := ParseString(fluText)
	if err != nil {
		t.Fatal(err)
	}
	if m.StateName(m.Entry) != "susceptible" || m.StateName(m.InfectTarget) != "latent" {
		t.Fatal("entry/infect resolution wrong")
	}
}

func TestParseRoundTrip(t *testing.T) {
	m, err := ParseString(fluText)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ParseString(m.Format())
	if err != nil {
		t.Fatalf("re-parse of Format output failed: %v\n%s", err, m.Format())
	}
	if m2.NumStates() != m.NumStates() || m2.Transmissibility != m.Transmissibility {
		t.Fatal("round trip changed the model")
	}
	for i := range m.States {
		a, b := m.States[i], m2.States[i]
		if a.Name != b.Name || a.Dwell != b.Dwell || a.Infectivity != b.Infectivity {
			t.Fatalf("state %d changed: %+v vs %+v", i, a, b)
		}
	}
}

func TestDefaultModelFormatsAndReparses(t *testing.T) {
	m := Default()
	m2, err := ParseString(m.Format())
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing entry":      strings.Replace(fluText, "entry susceptible", "", 1),
		"missing infect":     strings.Replace(fluText, "infect latent", "", 1),
		"bad directive":      fluText + "\nbogus directive\n",
		"bad number":         strings.Replace(fluText, "transmissibility 4.5e-5", "transmissibility xyz", 1),
		"bad dwell":          strings.Replace(fluText, "dwell fixed 1", "dwell sometimes", 1),
		"dwell out of block": "dwell forever\n" + fluText,
		"unknown treatment":  strings.Replace(fluText, "next[vaccinated] symptomatic 0.25", "next[magic] symptomatic 0.25", 1),
		"probability sum":    strings.Replace(fluText, "next symptomatic 0.66", "next symptomatic 0.5", 1),
		"uniform hi<lo":      strings.Replace(fluText, "dwell uniform 1 3", "dwell uniform 3 1", 1),
		"treatment syntax":   strings.Replace(fluText, "treatment vaccinated susceptibility 0.3 infectivity 0.5", "treatment vaccinated 0.3", 1),
		// These four once panicked.
		"bare susceptibility": "state x\n  susceptibility",
		"bare infectivity":    "state x\n  infectivity\n",
		"256 states":          manyStates(256),
		"256th state by next": manyStates(255) + "  next t 1\n",
	}
	for name, text := range cases {
		if _, err := ParseString(text); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

// manyStates is a model text that declares n states.
func manyStates(n int) string {
	var b strings.Builder
	for i := range n {
		fmt.Fprintf(&b, "state s%d\n", i)
	}
	return b.String()
}

func TestParseCommentsAndBlanks(t *testing.T) {
	text := "# leading comment\n\n" + fluText + "\n# trailing\n"
	if _, err := ParseString(text); err != nil {
		t.Fatal(err)
	}
}
