package artifact

import (
	"bytes"
	"testing"
)

// The decoders read files any process may have dropped into a shared
// cache directory, so none may panic on any input. The seed corpora under
// testdata/fuzz hold the round-trip tests' artifacts; run a target with
//
//	go test -run '^$' -fuzz '^FuzzDecodePlacement$' -fuzztime 10s ./internal/artifact

// FuzzDecodePopulation: a payload that decodes re-encodes to itself, so
// every accepted payload is the one encoding of its population.
func FuzzDecodePopulation(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, err := DecodePopulation(payload)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodePopulation(p), payload) {
			t.Fatal("decoded population re-encodes to different bytes")
		}
	})
}

// FuzzDecodePlacement: as FuzzDecodePopulation, which needs the presence
// flags of the split stats and quality to be exactly 0 or 1.
func FuzzDecodePlacement(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		pl, err := DecodePlacement(payload)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodePlacement(pl), payload) {
			t.Fatal("decoded placement re-encodes to different bytes")
		}
	})
}

// FuzzDecodeCheckpoint: the JSON sections of an accepted payload may be
// spelled non-canonically (spacing, key order, unknown fields), so the
// first re-encode may differ from the input; the second must not.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		cp, err := DecodeCheckpoint(payload)
		if err != nil {
			return
		}
		once := EncodeCheckpoint(cp)
		cp, err = DecodeCheckpoint(once)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !bytes.Equal(EncodeCheckpoint(cp), once) {
			t.Fatal("checkpoint decode→encode is not a fixed point")
		}
	})
}

// FuzzOpen: an envelope opened under its own kind and key seals back to
// itself when its reserved byte is 0 (Open does not read that byte).
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, key, _, err := parseHeader(data)
		if err != nil {
			return
		}
		payload, err := Open(data, kind, key)
		if err != nil {
			return
		}
		if data[7] == 0 && !bytes.Equal(Seal(kind, key, payload), data) {
			t.Fatal("opened envelope seals to different bytes")
		}
	})
}
