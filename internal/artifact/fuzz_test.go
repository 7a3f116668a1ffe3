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

// FuzzOpen: every envelope Open accepts under its own kind and key holds
// a payload that opens again from Seal(kind, key, payload), and every
// version-3 envelope it accepts seals back to itself byte for byte, since
// Open takes only the pad length Seal picks and only zeros in the pad. An
// older envelope cannot: Seal writes version 3.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		v, kind, key, _, err := parseHeader(data)
		if err != nil {
			return
		}
		payload, err := Open(data, kind, key)
		if err != nil {
			return
		}
		resealed := Seal(kind, key, payload)
		if again, err := Open(resealed, kind, key); err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("resealed payload does not open to itself: %v", err)
		}
		if v == Version && !bytes.Equal(resealed, data) {
			t.Fatal("opened version-3 envelope seals to different bytes")
		}
	})
}
