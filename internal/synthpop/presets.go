package synthpop

import (
	"fmt"
	"sort"
)

// Preset captures the Table I row for one region: the full-scale sizes of
// the paper's census-derived populations (2009 American Community Survey).
type Preset struct {
	Name      string
	Visits    int64
	People    int64
	Locations int64
}

// TableIPresets are the eight regions of Table I, full scale.
var TableIPresets = []Preset{
	{"US", 1541367574, 280397680, 71705723},
	{"CA", 183858275, 33588339, 7178611},
	{"NY", 98350857, 17910467, 4719921},
	{"MI", 52534554, 9541140, 2490068},
	{"NC", 47130620, 8541564, 2289167},
	{"IA", 15280731, 2766716, 748239},
	{"AR", 14803256, 2685280, 739507},
	{"WY", 2756411, 499514, 144369},
}

// PresetByName returns the Table I or state-family preset with the given
// name, or an error listing valid names.
func PresetByName(name string) (Preset, error) {
	for _, p := range TableIPresets {
		if p.Name == name {
			return p, nil
		}
	}
	for _, p := range StateFamily() {
		if p.Name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range TableIPresets {
		names = append(names, p.Name)
	}
	return Preset{}, fmt.Errorf("synthpop: unknown preset %q (Table I presets: %v; plus 48 contiguous states and DC)", name, names)
}

// statePeople2009 approximates the 2009 population (thousands) of the 48
// contiguous states and DC, used only to build the Figure 5 state family.
// Table I states use their exact people counts instead.
var statePeople2009 = map[string]int64{
	"AL": 4710, "AZ": 6595, "AR": 2685, "CA": 33588, "CO": 5025,
	"CT": 3518, "DE": 885, "DC": 600, "FL": 18538, "GA": 9829,
	"ID": 1546, "IL": 12910, "IN": 6423, "IA": 2767, "KS": 2819,
	"KY": 4314, "LA": 4492, "ME": 1318, "MD": 5699, "MA": 6594,
	"MI": 9541, "MN": 5266, "MS": 2952, "MO": 5988, "MT": 975,
	"NE": 1797, "NV": 2643, "NH": 1325, "NJ": 8708, "NM": 2010,
	"NY": 17910, "NC": 8542, "ND": 647, "OH": 11543, "OK": 3687,
	"OR": 3826, "PA": 12605, "RI": 1053, "SC": 4561, "SD": 812,
	"TN": 6296, "TX": 24782, "UT": 2785, "VT": 622, "VA": 7883,
	"WA": 6664, "WV": 1820, "WI": 5655, "WY": 500,
}

// StateFamily returns presets for the 48 contiguous states and DC
// (Figure 5 plots one dot per state). For states not in Table I, the
// location and visit counts are derived using the US-wide ratios
// (locations ≈ people/3.91, visits ≈ 5.5·people).
func StateFamily() []Preset {
	exact := make(map[string]Preset)
	for _, p := range TableIPresets {
		if p.Name != "US" {
			exact[p.Name] = p
		}
	}
	names := make([]string, 0, len(statePeople2009))
	for n := range statePeople2009 {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Preset, 0, len(names))
	for _, n := range names {
		if p, ok := exact[n]; ok {
			out = append(out, p)
			continue
		}
		people := statePeople2009[n] * 1000
		out = append(out, Preset{
			Name:      n,
			People:    people,
			Locations: people * 71705723 / 280397680,
			Visits:    people * 11 / 2,
		})
	}
	return out
}

// ScaledConfig converts a full-scale preset into a generation Config at
// scale divisor 1:scale, preserving the people:locations ratio. The seed
// is derived from the preset name so that different states differ.
func ScaledConfig(p Preset, scale int, seed uint64) Config {
	if scale < 1 {
		scale = 1
	}
	people := int(p.People) / scale
	if people < 100 {
		people = 100
	}
	locations := int(p.Locations) / scale
	if locations < 30 {
		locations = 30
	}
	h := seed
	for _, c := range p.Name {
		h = h*131 + uint64(c)
	}
	return DefaultConfig(p.Name, people, locations, h)
}

// GenerateState is shorthand: preset lookup + scaling + generation.
func GenerateState(name string, scale int, seed uint64) (*Population, error) {
	p, err := PresetByName(name)
	if err != nil {
		return nil, err
	}
	pop := Generate(ScaledConfig(p, scale, seed))
	return pop, nil
}
