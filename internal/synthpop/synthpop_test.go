package synthpop

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/xrand"
)

func genSmall(t testing.TB, seed uint64) *Population {
	t.Helper()
	pop := Generate(DefaultConfig("test", 5000, 1200, seed))
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t, 1)
	b := genSmall(t, 1)
	if a.NumVisits() != b.NumVisits() {
		t.Fatalf("visit counts differ: %d vs %d", a.NumVisits(), b.NumVisits())
	}
	for i := range a.Visits {
		if a.Visits[i] != b.Visits[i] {
			t.Fatalf("visit %d differs: %+v vs %+v", i, a.Visits[i], b.Visits[i])
		}
	}
	c := genSmall(t, 2)
	if c.NumVisits() == a.NumVisits() && c.Visits[0] == a.Visits[0] && c.Visits[7] == a.Visits[7] {
		t.Fatal("different seeds produced identical populations")
	}
}

// TestGenerateTinyTowns: every location count from 1 to 12 generates a
// valid population at every size. One location is a lone home with no
// school, workplace or errand venue, so everyone stays home all day.
func TestGenerateTinyTowns(t *testing.T) {
	for locs := 1; locs <= 12; locs++ {
		for _, people := range []int{1, 5, 50, 500} {
			pop := Generate(DefaultConfig("tiny", people, locs, 3))
			if err := pop.Validate(); err != nil {
				t.Fatalf("%d people, %d locations: %v", people, locs, err)
			}
			if pop.NumPersons() != people || len(pop.Locations) < locs {
				t.Fatalf("%d people, %d locations: got %d persons, %d locations",
					people, locs, pop.NumPersons(), len(pop.Locations))
			}
			if locs > 1 {
				continue
			}
			for _, v := range pop.Visits {
				if pop.Locations[v.Loc].Type != Home {
					t.Fatalf("%d people in a one-location town: visit %+v leaves home", people, v)
				}
			}
		}
	}
}

func TestPersonDegreeCalibration(t *testing.T) {
	pop := Generate(DefaultConfig("cal", 20000, 5000, 3))
	perPerson := make([]int, pop.NumPersons())
	for p := 0; p < pop.NumPersons(); p++ {
		perPerson[p] = len(pop.PersonVisits(int32(p)))
	}
	s := stats.SummarizeInts(perPerson)
	// Paper: avg 5.5, sigma 2.6. Accept a generous band; the shape is what
	// matters.
	if s.Mean < 4.2 || s.Mean > 6.8 {
		t.Fatalf("visits per person mean = %v, want ≈5.5", s.Mean)
	}
	if s.Std < 1.0 || s.Std > 4.0 {
		t.Fatalf("visits per person std = %v, want ≈2.6", s.Std)
	}
	if s.Min < 2 {
		t.Fatalf("everyone should have at least 2 home visits, min = %v", s.Min)
	}
}

func TestLocationDegreeHeavyTail(t *testing.T) {
	pop := Generate(DefaultConfig("tail", 30000, 7000, 5))
	counts := pop.VisitCountsPerLocation()
	fs := make([]float64, len(counts))
	for i, c := range counts {
		fs[i] = float64(c)
	}
	s := stats.Summarize(fs)
	if s.Max < 20*s.Mean {
		t.Fatalf("tail too light: max %v vs mean %v", s.Max, s.Mean)
	}
	// Power-law tail exponent should be finite and in a plausible social
	// network band (1.5..4).
	alpha := stats.PowerLawAlpha(fs, s.Mean*4)
	if alpha < 1.5 || alpha > 4.5 {
		t.Fatalf("tail alpha = %v, want in [1.5,4.5]", alpha)
	}
}

func TestVisitsWellFormed(t *testing.T) {
	pop := genSmall(t, 7)
	for _, v := range pop.Visits {
		if v.Start >= v.End {
			t.Fatalf("empty visit %+v", v)
		}
		if v.End > 24*60 {
			t.Fatalf("visit past midnight %+v", v)
		}
	}
}

func TestChildrenAttendSchool(t *testing.T) {
	pop := genSmall(t, 9)
	checked := 0
	for p := 0; p < pop.NumPersons() && checked < 500; p++ {
		if pop.Persons[p].Age != Child {
			continue
		}
		checked++
		found := false
		for _, v := range pop.PersonVisits(int32(p)) {
			if pop.Locations[v.Loc].Type == School {
				found = true
			}
		}
		if !found {
			t.Fatalf("child %d has no school visit", p)
		}
	}
	if checked == 0 {
		t.Fatal("no children generated")
	}
}

func TestHomeVisitsAtOwnHome(t *testing.T) {
	pop := genSmall(t, 11)
	for p := 0; p < pop.NumPersons(); p++ {
		for _, v := range pop.PersonVisits(int32(p)) {
			if pop.Locations[v.Loc].Type == Home && v.Loc != pop.Persons[p].Home {
				t.Fatalf("person %d visits foreign home %d (own %d)", p, v.Loc, pop.Persons[p].Home)
			}
		}
	}
}

func TestSublocationWithinRange(t *testing.T) {
	f := func(seed uint64) bool {
		pop := Generate(DefaultConfig("q", 800, 300, seed))
		return pop.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueVisitorsPerLocation(t *testing.T) {
	pop := genSmall(t, 13)
	unique := pop.UniqueVisitorsPerLocation()
	counts := pop.VisitCountsPerLocation()
	var sumU, sumC int64
	for l := range unique {
		if unique[l] > counts[l] {
			t.Fatalf("location %d: unique %d > visits %d", l, unique[l], counts[l])
		}
		sumU += int64(unique[l])
		sumC += int64(counts[l])
	}
	if sumC != int64(pop.NumVisits()) {
		t.Fatalf("visit counts sum %d != %d", sumC, pop.NumVisits())
	}
	if sumU == 0 {
		t.Fatal("no unique visitors recorded")
	}
}

func TestVisitIndexByLocation(t *testing.T) {
	pop := genSmall(t, 17)
	offsets, order := pop.VisitIndexByLocation()
	if len(order) != pop.NumVisits() {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, pop.NumVisits())
	for l := 0; l < pop.NumLocations(); l++ {
		for _, vi := range order[offsets[l]:offsets[l+1]] {
			if seen[vi] {
				t.Fatalf("visit %d indexed twice", vi)
			}
			seen[vi] = true
			if int(pop.Visits[vi].Loc) != l {
				t.Fatalf("visit %d filed under location %d but is at %d", vi, l, pop.Visits[vi].Loc)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("visit %d missing from index", i)
		}
	}
}

func TestTableIPresets(t *testing.T) {
	if len(TableIPresets) != 8 {
		t.Fatalf("want 8 Table I rows, got %d", len(TableIPresets))
	}
	us := TableIPresets[0]
	if us.Name != "US" || us.People != 280397680 || us.Visits != 1541367574 || us.Locations != 71705723 {
		t.Fatalf("US preset corrupted: %+v", us)
	}
	// Average person degree of every preset should be near 5.5.
	for _, p := range TableIPresets {
		d := float64(p.Visits) / float64(p.People)
		if d < 5.0 || d > 6.0 {
			t.Fatalf("%s visits/people = %v, want ≈5.5", p.Name, d)
		}
	}
}

func TestStateFamily(t *testing.T) {
	fam := StateFamily()
	if len(fam) != 49 {
		t.Fatalf("state family size = %d, want 49 (48 contiguous + DC)", len(fam))
	}
	seen := map[string]bool{}
	for _, p := range fam {
		if seen[p.Name] {
			t.Fatalf("duplicate state %s", p.Name)
		}
		seen[p.Name] = true
		if p.People <= 0 || p.Locations <= 0 || p.Visits <= 0 {
			t.Fatalf("degenerate preset %+v", p)
		}
	}
	// Table I states keep their exact values inside the family.
	for _, p := range fam {
		if p.Name == "CA" && p.Visits != 183858275 {
			t.Fatalf("CA family preset lost Table I visits: %+v", p)
		}
	}
}

func TestPresetByName(t *testing.T) {
	p, err := PresetByName("WY")
	if err != nil || p.People != 499514 {
		t.Fatalf("WY preset: %+v, %v", p, err)
	}
	if _, err := PresetByName("TX"); err != nil {
		t.Fatalf("state-family preset TX should resolve: %v", err)
	}
	if _, err := PresetByName("ZZ"); err == nil {
		t.Fatal("unknown preset should error")
	}
}

func TestScaledConfig(t *testing.T) {
	p, _ := PresetByName("IA")
	cfg := ScaledConfig(p, 1000, 42)
	if cfg.People != int(p.People/1000) {
		t.Fatalf("scaled people = %d", cfg.People)
	}
	if cfg.Locations != int(p.Locations/1000) {
		t.Fatalf("scaled locations = %d", cfg.Locations)
	}
	// Tiny states at huge scale get floored.
	cfg2 := ScaledConfig(p, 1<<40, 42)
	if cfg2.People < 100 || cfg2.Locations < 30 {
		t.Fatalf("floor not applied: %+v", cfg2)
	}
}

func TestGenerateState(t *testing.T) {
	pop, err := GenerateState("WY", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	if pop.Name != "WY" {
		t.Fatalf("name = %q", pop.Name)
	}
	want := int(499514 / 100)
	if math.Abs(float64(pop.NumPersons()-want)) > 1 {
		t.Fatalf("WY 1:100 persons = %d, want %d", pop.NumPersons(), want)
	}
	if _, err := GenerateState("nope", 10, 1); err == nil {
		t.Fatal("unknown state should error")
	}
}

func TestAliasSamplerDistribution(t *testing.T) {
	ids := []int32{0, 1, 2}
	ws := []float64{1, 2, 7}
	a := newAliasSampler(ids, ws)
	s := xrand.NewStream(23)
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[a.sample(s)]++
	}
	for i, w := range ws {
		want := w / 10 * float64(n)
		if math.Abs(float64(counts[i])-want)/want > 0.05 {
			t.Fatalf("id %d sampled %d times, want ~%v", i, counts[i], want)
		}
	}
}

func TestAliasSamplerDegenerate(t *testing.T) {
	if newAliasSampler(nil, nil) != nil {
		t.Fatal("empty sampler should be nil")
	}
	a := newAliasSampler([]int32{5, 6}, []float64{0, 0})
	s := xrand.NewStream(1)
	saw := map[int32]bool{}
	for i := 0; i < 100; i++ {
		saw[a.sample(s)] = true
	}
	if !saw[5] || !saw[6] {
		t.Fatal("zero-weight sampler should fall back to uniform")
	}
}

// TestValidateRejectsUnknownLocationType: the engine indexes per-type
// tables by Location.Type, so a type past the last one is an error.
func TestValidateRejectsUnknownLocationType(t *testing.T) {
	pop := genSmall(t, 29)
	pop.Locations[len(pop.Locations)/2].Type = NumLocationTypes
	if err := pop.Validate(); err == nil {
		t.Fatalf("location of type %d accepted", NumLocationTypes)
	}
}

func TestLocationTypeString(t *testing.T) {
	if Home.String() != "home" || School.String() != "school" {
		t.Fatal("type names wrong")
	}
	if LocationType(200).String() == "" {
		t.Fatal("unknown type should still format")
	}
}

func BenchmarkGenerate50k(b *testing.B) {
	cfg := DefaultConfig("bench", 50000, 12000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pop := Generate(cfg)
		if pop.NumVisits() == 0 {
			b.Fatal("no visits")
		}
	}
}
