package interventions

import "testing"

// Scenario text arrives in submitted sweep specs, so Parse may not panic on
// any input. The seed corpus under testdata/fuzz holds the shipped
// scenarios; run the target with
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/interventions

// FuzzParse: no input panics, and an accepted one yields a scenario.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if sc, err := Parse(src); err == nil && sc == nil {
			t.Fatal("Parse accepted the text but returned no scenario")
		}
	})
}
