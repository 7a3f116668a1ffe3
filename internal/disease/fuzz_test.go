package disease

import "testing"

// Model text arrives in submitted sweep specs, so Parse may not panic on any
// input. The seed corpus under testdata/fuzz holds the shipped models and an
// input that once panicked; run the target with
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/disease

// FuzzParse: no input panics, and an accepted one yields a model.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		if m, err := ParseString(text); err == nil && m == nil {
			t.Fatal("Parse accepted the text but returned no model")
		}
	})
}
