package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/interventions"
	"repro/internal/partition"
	"repro/internal/splitloc"
	"repro/internal/synthpop"
)

// oraclePopulations are the populations TestCodecMatchesReference encodes:
// the round-trip tests' town, a small town, one with no visits, one at the
// edges of every field (extreme int32s, negative and 1440-minute visits)
// and one with every slice nil.
func oraclePopulations(t *testing.T) []*synthpop.Population {
	small := synthpop.Generate(synthpop.DefaultConfig("oracle", 40, 6, 3))
	return []*synthpop.Population{
		testPopulation(t),
		small,
		{Name: "no visits", Persons: small.Persons, Locations: small.Locations,
			PersonVisitOffsets: make([]int32, len(small.Persons)+1)},
		{Name: "édge",
			Persons: []synthpop.Person{{Age: 0, Home: math.MaxInt32}, {Age: 255, Home: math.MinInt32}},
			Locations: []synthpop.Location{{Type: 255, NumSub: math.MaxInt32, Weight: math.MinInt32,
				Origin: -1, SubBase: math.MaxInt32}},
			Visits: []synthpop.Visit{
				{Person: math.MinInt32, Loc: math.MaxInt32, Sub: -1, Start: -1440, End: 1440},
				{Person: 1, Start: math.MinInt16, End: math.MaxInt16},
				{Start: 0, End: 1440},
			},
			PersonVisitOffsets: []int32{0, math.MaxInt32, math.MinInt32}},
		{},
	}
}

// oraclePlacements puts each population under five placements: with split
// stats and partition quality (extreme and non-finite values included),
// with either one, with an empty quality, and with neither.
func oraclePlacements(t *testing.T) []*Placement {
	var out []*Placement
	for _, pop := range oraclePopulations(t) {
		pr := make([]int32, len(pop.Persons))
		for i := range pr {
			pr[i] = int32(i%3) - 1
		}
		stats := &splitloc.Stats{Threshold: math.Inf(1), NumSplit: math.MaxInt64, NumFragments: -1,
			LocationsPre: 30, LocationsPost: math.MinInt64, MaxLocWeightPre: math.NaN(),
			MaxLocWeightPost: -0.0, MaxDegreePre: math.MaxInt32, MaxDegreePost: math.MinInt32, GrowthFrac: 0.2}
		quality := &partition.Quality{K: 3, PartWeights: [][]int64{{10, math.MinInt64}, nil, {}},
			TotalWeights: []int64{math.MaxInt64}, MaxOverAvg: []float64{1.1, math.Inf(-1)},
			EdgeCut: 123, MaxPartCut: -45, TotalEdgeWeight: math.MaxInt64}
		cases := []struct {
			s *splitloc.Stats
			q *partition.Quality
		}{{stats, quality}, {stats, nil}, {nil, quality}, {nil, &partition.Quality{}}, {nil, nil}}
		if len(pop.Visits) > 1000 {
			cases = cases[:1] // the large town once: every sweep below is quadratic
		}
		for _, c := range cases {
			out = append(out, &Placement{Pop: pop, PersonRank: pr, LocationRank: make([]int32, len(pop.Locations)),
				Ranks: math.MaxUint32, Label: fmt.Sprintf("GP-%d", len(out)), SplitStats: c.s, Quality: c.q})
		}
	}
	return out
}

// oracleCheckpoints are real checkpoints of two kernels and of day 0, and
// hand-built ones with nil and empty sets and flag arrays.
func oracleCheckpoints(t *testing.T) []*core.Checkpoint {
	return []*core.Checkpoint{
		testCheckpoint(t, "", 6),
		testCheckpoint(t, core.KernelEvent, 6),
		testCheckpoint(t, "", 0),
		{Day: math.MaxUint32, Cumulative: math.MinInt64, EventOn: true,
			States: []int32{math.MaxInt32, -1}, Treatments: []int32{}, DaysLeft: nil,
			Infected: []bool{true, false}, Infectious: [][]int32{nil, {}, {math.MinInt32, 7}},
			Progressing: [][]int32{}, RuleFired: []bool{},
			Effects: &interventions.Effects{ClosedFor: map[string]int{"school": 3}, VaccinateNow: 0.25}},
		{},
	}
}

// TestCodecMatchesReference holds the record-block codec to the
// field-at-a-time one in reference_test.go. On every input, the encoding
// is byte-identical and decodes to an equal value. Every truncation
// prefix, every count or length field set to all ones and, on small
// payloads, every byte set to 2 and to 0xff decode to the same value or
// to an error with the same message; where the reference accepted a flag
// byte other than 0 or 1, the codec must reject it.
func TestCodecMatchesReference(t *testing.T) {
	for i, p := range oraclePopulations(t) {
		checkOracle(t, fmt.Sprintf("population %d", i), EncodePopulation(p), refEncodePopulation(p),
			DecodePopulation, refDecodePopulation)
	}
	for i, pl := range oraclePlacements(t) {
		checkOracle(t, fmt.Sprintf("placement %d", i), EncodePlacement(pl), refEncodePlacement(pl),
			DecodePlacement, refDecodePlacement)
	}
	for i, cp := range oracleCheckpoints(t) {
		checkOracle(t, fmt.Sprintf("checkpoint %d", i), EncodeCheckpoint(cp), refEncodeCheckpoint(cp),
			DecodeCheckpoint, refDecodeCheckpoint)
	}
}

// TestEncodeAllocatesOnce: the encoders size their buffer up front, so a
// population or placement encodes in one allocation, with or without split
// stats and quality. A short size estimate regrows the buffer and copies
// the whole payload.
func TestEncodeAllocatesOnce(t *testing.T) {
	for i, pl := range oraclePlacements(t) {
		if n := testing.AllocsPerRun(3, func() { EncodePlacement(pl) }); n != 1 {
			t.Errorf("placement %d: %v allocations, want 1", i, n)
		}
		if n := testing.AllocsPerRun(3, func() { EncodePopulation(pl.Pop) }); n != 1 {
			t.Errorf("population of placement %d: %v allocations, want 1", i, n)
		}
	}
}

func checkOracle[T any](t *testing.T, name string, payload []byte, ref *refEnc,
	decode func([]byte) (T, error), refDecode func([]byte) (T, bool, error)) {
	t.Helper()
	if !bytes.Equal(payload, ref.b) {
		t.Fatalf("%s: encoding differs from the reference's", name)
	}
	same := func(what string, b []byte) {
		t.Helper()
		want, lax, wantErr := refDecode(b)
		got, err := decode(b)
		if lax {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("%s, %s: a non-canonical flag decoded (err %v)", name, what, err)
			}
			return
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("%s, %s: decoded (%v, %v), reference (%v, %v)", name, what, got, err, want, wantErr)
		}
	}
	same("whole", payload)
	if _, err := decode(payload); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for n := range payload {
		same(fmt.Sprintf("prefix %d", n), payload[:n])
	}
	for _, c := range ref.counts {
		b := bytes.Clone(payload)
		binary.LittleEndian.PutUint64(b[c.off:], math.MaxUint64>>(64-8*c.width))
		same(fmt.Sprintf("count at %d all ones", c.off), b)
	}
	if len(payload) > 2<<10 {
		return
	}
	b := bytes.Clone(payload)
	for i := range b {
		for _, v := range []byte{2, 0xff} {
			b[i] = v
			same(fmt.Sprintf("byte %d set to %d", i, v), b)
		}
		b[i] = payload[i]
	}
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so a
// NaN decoded from the same bytes equals itself.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		switch x := a.Interface().(type) { // float-free records, compared whole
		case []int32:
			return slices.Equal(x, b.Interface().([]int32))
		case []synthpop.Person:
			return slices.Equal(x, b.Interface().([]synthpop.Person))
		case []synthpop.Location:
			return slices.Equal(x, b.Interface().([]synthpop.Location))
		case []synthpop.Visit:
			return slices.Equal(x, b.Interface().([]synthpop.Visit))
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !sameBits(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// TestDecodeRejectsNonCanonicalFlags: a presence flag is 0 or 1. The
// field-at-a-time decoder read any other placement stats flag as absent
// and any other checkpoint bools flag as present, so two payloads decoded
// to one value and a re-encode could not reproduce the input.
func TestDecodeRejectsNonCanonicalFlags(t *testing.T) {
	pl := testPlacement(t)
	pl.SplitStats, pl.Quality = nil, nil
	payload := EncodePlacement(pl)
	for _, at := range []int{len(payload) - 2, len(payload) - 1} {
		b := bytes.Clone(payload)
		b[at] = 2
		if _, err := DecodePlacement(b); !errors.Is(err, ErrInvalid) {
			t.Fatalf("placement flag at %d = 2: err %v, want ErrInvalid", at, err)
		}
		if _, lax, err := refDecodePlacement(b); err != nil || !lax {
			t.Fatalf("reference on flag at %d = 2: lax %v, err %v", at, lax, err)
		}
	}

	cp := &core.Checkpoint{Infected: []bool{true}}
	payload = EncodeCheckpoint(cp)
	at := 4 + 8 + 1 + 3*8 // Day, Cumulative, EventOn, three empty arrays
	if payload[at] != 1 {
		t.Fatalf("Infected flag not at offset %d", at)
	}
	b := bytes.Clone(payload)
	b[at] = 2
	if _, err := DecodeCheckpoint(b); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bools flag = 2: err %v, want ErrInvalid", err)
	}
	if _, lax, err := refDecodeCheckpoint(b); err != nil || !lax {
		t.Fatalf("reference on bools flag = 2: lax %v, err %v", lax, err)
	}
}
