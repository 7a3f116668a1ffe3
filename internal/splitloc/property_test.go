package splitloc

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/synthpop"
)

// TestSplitPopulationRandomized: the full population transform preserves
// its invariants across random generator configurations.
func TestSplitPopulationRandomized(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw)
		pop := synthpop.Generate(synthpop.DefaultConfig("prop", 1500, 400, seed))
		split, st, err := SplitPopulation(pop, Options{MaxPartitions: 1024})
		if err != nil {
			return false
		}
		if split.Validate() != nil {
			return false
		}
		// Visit multiset size preserved; location count grows by exactly
		// NumFragments - NumSplit.
		if split.NumVisits() != pop.NumVisits() {
			return false
		}
		return split.NumLocations() == pop.NumLocations()+st.NumFragments-st.NumSplit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestSublocationWeightsMonotoneInTopFraction: widening the sample of
// largest locations can only average in smaller locations, so the derived
// sublocation weight must not increase dramatically — and never become
// negative or NaN.
func TestSublocationWeightsMonotoneInTopFraction(t *testing.T) {
	pop := synthpop.Generate(synthpop.DefaultConfig("mono", 8000, 2000, 3))
	narrow := SublocationWeights(pop, 0.01)
	wide := SublocationWeights(pop, 1.0)
	for ty := range narrow {
		if math.IsNaN(narrow[ty]) || math.IsNaN(wide[ty]) || narrow[ty] < 0 || wide[ty] < 0 {
			t.Fatalf("type %d weights invalid: %v / %v", ty, narrow[ty], wide[ty])
		}
	}
}
