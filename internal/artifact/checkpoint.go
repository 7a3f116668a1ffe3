package artifact

import (
	"encoding/json"

	"repro/internal/core"
)

// KindCheckpoint holds a sealed core.Checkpoint — the fork point an
// intervention sweep's branches resume from. Checkpoints live in their
// own store directory with their own TTL, so large fork-point blobs
// never compete with hot placement artifacts under the LRU bound.
//
// Kinds 5 and 6 are retired layouts: 5 carried four locality classes,
// per-class wire counts and sync rounds in its phase statistics, 6 encoded
// day reports and effects field by field in binary. A retired file fails
// Open's kind check, so it is a miss that is rebuilt and overwritten,
// never decoded under this layout. A field added to a type the JSON
// sections carry bumps the kind too: JSON decodes a missing field as zero.
const KindCheckpoint Kind = 7

// EncodeCheckpoint serializes a checkpoint to its deterministic payload
// (wrap with Seal before writing to disk). The per-person arrays and
// sparse sets, the bulk of it, are binary; the intervention effects and
// the prefix's day reports are length-prefixed JSON sections, so the codec
// follows those types without an edit. Both forms preserve nil-ness (an
// empty sparse set is nil, as snapshots hold it), and JSON sorts map keys
// and prints numbers exactly, so a decode→encode round trip reproduces
// the payload byte for byte and a restored run's Result marshals
// identically to a from-scratch run's.
func EncodeCheckpoint(cp *core.Checkpoint) []byte {
	e := &enc{b: make([]byte, 0, 64+14*len(cp.States))}
	e.u32(uint32(cp.Day))
	e.u64(uint64(cp.Cumulative))
	e.bool(cp.EventOn)
	e.i32s(cp.States)
	e.i32s(cp.Treatments)
	e.i32s(cp.DaysLeft)
	e.bools(cp.Infected)
	e.sets(cp.Infectious)
	e.sets(cp.Progressing)
	e.bools(cp.RuleFired)
	e.json(cp.Effects)
	e.json(cp.Days)
	return e.b
}

// DecodeCheckpoint parses an EncodeCheckpoint payload. Structural damage
// wraps ErrInvalid; semantic validation against a concrete engine
// (person counts, state ids, set membership) is core.Restore's job.
func DecodeCheckpoint(payload []byte) (*core.Checkpoint, error) {
	d := &dec{b: payload}
	cp := &core.Checkpoint{}
	cp.Day = int(d.u32())
	cp.Cumulative = int64(d.u64())
	cp.EventOn = d.bool()
	cp.States = d.i32s()
	cp.Treatments = d.i32s()
	cp.DaysLeft = d.i32s()
	cp.Infected = d.bools()
	cp.Infectious = d.sets("infectious")
	cp.Progressing = d.sets("progressing")
	cp.RuleFired = d.bools()
	d.json(&cp.Effects)
	d.json(&cp.Days)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return cp, nil
}

// json encodes v as a length-prefixed JSON section. Marshal fails only on
// a NaN or ±Inf effect, which neither the scenario parser nor a JSON sweep
// spec can produce; were one to slip through, the section would be empty
// and decode as ErrInvalid, a counted miss that rebuilds the prefix.
func (e *enc) json(v any) {
	b, _ := json.Marshal(v)
	e.u64(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (d *dec) json(v any) {
	n, ok := d.count(1)
	if !ok {
		return
	}
	if err := json.Unmarshal(d.take(n), v); err != nil {
		d.fail("JSON section at offset %d: %v", d.off-n, err)
	}
}

// sets encodes one sparse set per PM.
func (e *enc) sets(sets [][]int32) {
	e.u32(uint32(len(sets)))
	for _, set := range sets {
		e.i32s(set)
	}
}

// sets decodes them, an empty set as nil, the way a snapshot holds it.
// Each set costs at least its 8-byte length prefix.
func (d *dec) sets(what string) [][]int32 {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(d.remaining())/8 {
		d.fail("%s set count %d overruns payload", what, n)
		return nil
	}
	out := make([][]int32, n)
	for i := range out {
		if set := d.i32s(); len(set) > 0 {
			out[i] = set
		}
	}
	return out
}

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (d *dec) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool at offset %d", d.off-1)
		return false
	}
}

// bools encodes a []bool with nil-ness preserved (flag 0 = nil).
func (e *enc) bools(s []bool) {
	if s == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.bool(v)
	}
}

func (d *dec) bools() []bool {
	if d.u8() == 0 {
		return nil
	}
	n, ok := d.count(1)
	if !ok {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.bool()
	}
	return out
}
