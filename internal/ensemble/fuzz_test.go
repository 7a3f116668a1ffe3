package ensemble

import (
	"bytes"
	"reflect"
	"testing"
)

// Every POST /v1/sweeps body reaches ParseSpec, through the gateway and
// the daemon, so it may not panic on any input. The seed corpus under
// testdata/fuzz holds the package tests' specs; run the target with
//
//	go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 10s ./internal/ensemble

// FuzzParseSpec: no body panics, and an accepted spec encodes to JSON
// that parses back to an equal spec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := ParseSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		enc := buf.String()
		again, err := ParseSpec(&buf)
		if err != nil {
			t.Fatalf("encoded spec does not parse: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(emptyAsNil(s), emptyAsNil(again)) {
			t.Fatalf("spec changed through Encode and ParseSpec:\n%+v\n%+v", s, again)
		}
	})
}

// emptyAsNil returns a copy of s whose empty intervention slices are nil:
// Encode omits an empty slice, which parses back as nil. Normalize and
// Validate leave every other slice of an accepted spec non-empty.
func emptyAsNil(s *Spec) *Spec {
	c := *s
	c.Interventions = nil
	for _, iv := range s.Interventions {
		if len(iv.Closures) == 0 {
			iv.Closures = nil
		}
		if len(iv.Vaccinations) == 0 {
			iv.Vaccinations = nil
		}
		if len(iv.Quarantines) == 0 {
			iv.Quarantines = nil
		}
		c.Interventions = append(c.Interventions, iv)
	}
	return &c
}
