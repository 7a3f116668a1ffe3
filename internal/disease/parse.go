package disease

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Parse reads a PTTS disease model from the text format used by the
// reproduction, a simplified version of EpiSimdemics' disease model files.
// The format is line based; '#' starts a comment. Example:
//
//	model flu
//	transmissibility 4.5e-5
//	treatment vaccinated susceptibility 0.3 infectivity 0.5
//
//	state susceptible
//	  susceptibility 1.0
//	  dwell forever
//
//	state latent
//	  dwell uniform 1 3
//	  next infectious 1.0
//
//	state infectious
//	  infectivity 1.0
//	  dwell fixed 1
//	  next symptomatic 0.66
//	  next asymptomatic 0.34
//	  next[vaccinated] symptomatic 0.25
//	  next[vaccinated] asymptomatic 0.75
//
//	state symptomatic
//	  infectivity 1.5
//	  dwell uniform 3 6
//	  next recovered 1.0
//
//	state asymptomatic
//	  infectivity 0.5
//	  dwell geometric 2 2
//	  next recovered 1.0
//
//	state recovered
//	  dwell forever
//
//	entry susceptible
//	infect latent
//
// State names may be referenced before their "state" block appears.
func Parse(r io.Reader) (*Model, error) {
	m := &Model{
		Treatments: []Treatment{{Name: "none", SusceptibilityMul: 1, InfectivityMul: 1}},
	}
	// Forward references: states are interned on first mention; false
	// when name would be a 256th state.
	intern := func(name string) (StateID, bool) {
		if m.index == nil {
			m.index = map[string]StateID{}
		}
		if id, ok := m.index[name]; ok {
			return id, true
		}
		id := StateID(len(m.States))
		if len(m.States) >= 255 {
			return 0, false
		}
		m.States = append(m.States, State{Name: name})
		m.index[name] = id
		return id, true
	}

	type pendingNext struct {
		state     StateID
		treatment string
		target    string
		prob      float64
		line      int
	}
	var nexts []pendingNext
	var entryName, infectName string
	cur := -1 // current state block, -1 = header

	sc := bufio.NewScanner(r)
	lineNo := 0
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("disease: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	parseFloat := func(tok string) (float64, error) {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return 0, fail("bad number %q", tok)
		}
		return v, nil
	}
	parseInt := func(tok string) (int, error) {
		v, err := strconv.Atoi(tok)
		if err != nil {
			return 0, fail("bad integer %q", tok)
		}
		return v, nil
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		key := fields[0]
		switch {
		case key == "model":
			if len(fields) != 2 {
				return nil, fail("model needs one name")
			}
			m.Name = fields[1]
		case key == "transmissibility":
			if len(fields) != 2 {
				return nil, fail("transmissibility needs one value")
			}
			v, err := parseFloat(fields[1])
			if err != nil {
				return nil, err
			}
			m.Transmissibility = v
		case key == "treatment":
			// treatment NAME susceptibility X infectivity Y
			if len(fields) != 6 || fields[2] != "susceptibility" || fields[4] != "infectivity" {
				return nil, fail("treatment syntax: treatment NAME susceptibility X infectivity Y")
			}
			sus, err := parseFloat(fields[3])
			if err != nil {
				return nil, err
			}
			inf, err := parseFloat(fields[5])
			if err != nil {
				return nil, err
			}
			m.Treatments = append(m.Treatments, Treatment{
				Name: fields[1], SusceptibilityMul: sus, InfectivityMul: inf,
			})
		case key == "state":
			if len(fields) != 2 {
				return nil, fail("state needs one name")
			}
			id, ok := intern(fields[1])
			if !ok {
				return nil, fail("more than 255 states")
			}
			cur = int(id)
		case key == "susceptibility":
			if cur < 0 {
				return nil, fail("susceptibility outside state block")
			}
			if len(fields) != 2 {
				return nil, fail("susceptibility needs one value")
			}
			v, err := parseFloat(fields[1])
			if err != nil {
				return nil, err
			}
			m.States[cur].Susceptibility = v
		case key == "infectivity":
			if cur < 0 {
				return nil, fail("infectivity outside state block")
			}
			if len(fields) != 2 {
				return nil, fail("infectivity needs one value")
			}
			v, err := parseFloat(fields[1])
			if err != nil {
				return nil, err
			}
			m.States[cur].Infectivity = v
		case key == "dwell":
			if cur < 0 {
				return nil, fail("dwell outside state block")
			}
			if len(fields) < 2 {
				return nil, fail("dwell needs a kind")
			}
			switch fields[1] {
			case "forever":
				m.States[cur].Dwell = Dwell{Kind: DwellForever}
			case "fixed":
				if len(fields) != 3 {
					return nil, fail("dwell fixed needs one day count")
				}
				a, err := parseInt(fields[2])
				if err != nil {
					return nil, err
				}
				m.States[cur].Dwell = Dwell{Kind: DwellFixed, A: a}
			case "uniform":
				if len(fields) != 4 {
					return nil, fail("dwell uniform needs lo and hi")
				}
				a, err := parseInt(fields[2])
				if err != nil {
					return nil, err
				}
				b, err := parseInt(fields[3])
				if err != nil {
					return nil, err
				}
				if b < a {
					return nil, fail("dwell uniform hi < lo")
				}
				m.States[cur].Dwell = Dwell{Kind: DwellUniform, A: a, B: b}
			case "geometric":
				if len(fields) != 4 {
					return nil, fail("dwell geometric needs min and mean-extra")
				}
				a, err := parseInt(fields[2])
				if err != nil {
					return nil, err
				}
				b, err := parseInt(fields[3])
				if err != nil {
					return nil, err
				}
				if b < 1 {
					return nil, fail("dwell geometric mean-extra must be >= 1")
				}
				m.States[cur].Dwell = Dwell{Kind: DwellGeometric, A: a, B: b}
			default:
				return nil, fail("unknown dwell kind %q", fields[1])
			}
		case key == "next" || strings.HasPrefix(key, "next["):
			if cur < 0 {
				return nil, fail("next outside state block")
			}
			if len(fields) != 3 {
				return nil, fail("next syntax: next[TREATMENT] STATE PROB")
			}
			treatment := "none"
			if strings.HasPrefix(key, "next[") {
				if !strings.HasSuffix(key, "]") {
					return nil, fail("unterminated treatment selector %q", key)
				}
				treatment = key[len("next[") : len(key)-1]
			}
			p, err := parseFloat(fields[2])
			if err != nil {
				return nil, err
			}
			nexts = append(nexts, pendingNext{
				state: StateID(cur), treatment: treatment,
				target: fields[1], prob: p, line: lineNo,
			})
		case key == "entry":
			if len(fields) != 2 {
				return nil, fail("entry needs one state name")
			}
			entryName = fields[1]
		case key == "infect":
			if len(fields) != 2 {
				return nil, fail("infect needs one state name")
			}
			infectName = fields[1]
		default:
			return nil, fail("unknown directive %q", key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("disease: read: %w", err)
	}

	// Resolve pending transitions now that all states and treatments exist.
	for _, pn := range nexts {
		tid, ok := m.TreatmentByName(pn.treatment)
		if !ok {
			return nil, fmt.Errorf("disease: line %d: unknown treatment %q", pn.line, pn.treatment)
		}
		target, ok := intern(pn.target)
		if !ok {
			return nil, fmt.Errorf("disease: line %d: more than 255 states", pn.line)
		}
		st := &m.States[pn.state]
		for len(st.Transitions) <= int(tid) {
			st.Transitions = append(st.Transitions, nil)
		}
		st.Transitions[tid] = append(st.Transitions[tid], Transition{Prob: pn.prob, Next: target})
	}

	if entryName == "" {
		return nil, fmt.Errorf("disease: missing entry directive")
	}
	if infectName == "" {
		return nil, fmt.Errorf("disease: missing infect directive")
	}
	entry, ok := m.StateByName(entryName)
	if !ok {
		return nil, fmt.Errorf("disease: entry state %q never defined", entryName)
	}
	infect, ok := m.StateByName(infectName)
	if !ok {
		return nil, fmt.Errorf("disease: infect state %q never defined", infectName)
	}
	m.Entry = entry
	m.InfectTarget = infect
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseString is Parse on a string.
func ParseString(s string) (*Model, error) { return Parse(strings.NewReader(s)) }

// Format renders the model back into the Parse text format, useful for
// round-trip tests and for dumping built-in models.
func (m *Model) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model %s\n", m.Name)
	fmt.Fprintf(&b, "transmissibility %g\n", m.Transmissibility)
	for _, t := range m.Treatments[1:] {
		fmt.Fprintf(&b, "treatment %s susceptibility %g infectivity %g\n",
			t.Name, t.SusceptibilityMul, t.InfectivityMul)
	}
	for _, s := range m.States {
		fmt.Fprintf(&b, "\nstate %s\n", s.Name)
		if s.Susceptibility != 0 {
			fmt.Fprintf(&b, "  susceptibility %g\n", s.Susceptibility)
		}
		if s.Infectivity != 0 {
			fmt.Fprintf(&b, "  infectivity %g\n", s.Infectivity)
		}
		switch s.Dwell.Kind {
		case DwellForever:
			fmt.Fprintf(&b, "  dwell forever\n")
		case DwellFixed:
			fmt.Fprintf(&b, "  dwell fixed %d\n", s.Dwell.A)
		case DwellUniform:
			fmt.Fprintf(&b, "  dwell uniform %d %d\n", s.Dwell.A, s.Dwell.B)
		case DwellGeometric:
			fmt.Fprintf(&b, "  dwell geometric %d %d\n", s.Dwell.A, s.Dwell.B)
		}
		for ti, set := range s.Transitions {
			for _, tr := range set {
				if ti == 0 {
					fmt.Fprintf(&b, "  next %s %g\n", m.States[tr.Next].Name, tr.Prob)
				} else {
					fmt.Fprintf(&b, "  next[%s] %s %g\n", m.Treatments[ti].Name, m.States[tr.Next].Name, tr.Prob)
				}
			}
		}
	}
	fmt.Fprintf(&b, "\nentry %s\n", m.States[m.Entry].Name)
	fmt.Fprintf(&b, "infect %s\n", m.States[m.InfectTarget].Name)
	return b.String()
}
