package artifact

import (
	"sort"

	"repro/internal/charm"
	"repro/internal/core"
	"repro/internal/interventions"
)

// KindCheckpoint holds a sealed core.Checkpoint — the fork point an
// intervention sweep's branches resume from. Checkpoints live in their
// own store directory with their own TTL, so large fork-point blobs
// never compete with hot placement artifacts under the LRU bound.
//
// Kind 5 is the retired layout whose phase statistics carried four
// locality classes, per-class wire counts and sync rounds. A kind-5 file
// fails Open's kind check, so it is a miss that is rebuilt and
// overwritten, never decoded under this layout.
const KindCheckpoint Kind = 6

// EncodeCheckpoint serializes a checkpoint to its deterministic binary
// payload (wrap with Seal before writing to disk). Maps are emitted in
// sorted key order and nil-ness of maps and slices is preserved, so a
// decode→encode round trip reproduces the payload byte for byte and a
// restored run's Result marshals identically to a from-scratch run's.
func EncodeCheckpoint(cp *core.Checkpoint) []byte {
	e := &enc{b: make([]byte, 0, 64+14*len(cp.States))}
	e.u32(uint32(cp.Day))
	e.u64(uint64(cp.Cumulative))
	e.bool(cp.EventOn)
	e.i32s(cp.States)
	e.i32s(cp.Treatments)
	e.i32s(cp.DaysLeft)
	e.bools(cp.Infected)
	e.u32(uint32(len(cp.Infectious)))
	for _, set := range cp.Infectious {
		e.i32s(set)
	}
	e.u32(uint32(len(cp.Progressing)))
	for _, set := range cp.Progressing {
		e.i32s(set)
	}
	e.bools(cp.RuleFired)
	e.effects(cp.Effects)
	e.u32(uint32(len(cp.Days)))
	for i := range cp.Days {
		e.dayReport(&cp.Days[i])
	}
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
	// Each sparse set costs at least its 8-byte length prefix.
	if n := int(d.u32()); d.err == nil && uint64(n) <= uint64(d.remaining())/8 {
		cp.Infectious = make([][]int32, n)
		for i := range cp.Infectious {
			cp.Infectious[i] = d.i32s()
		}
	} else if d.err == nil {
		d.fail("infectious set count %d overruns payload", n)
	}
	if n := int(d.u32()); d.err == nil && uint64(n) <= uint64(d.remaining())/8 {
		cp.Progressing = make([][]int32, n)
		for i := range cp.Progressing {
			cp.Progressing[i] = d.i32s()
		}
	} else if d.err == nil {
		d.fail("progressing set count %d overruns payload", n)
	}
	cp.RuleFired = d.bools()
	cp.Effects = d.effects()
	if n := int(d.u32()); d.err == nil && uint64(n) <= uint64(d.remaining())/4 {
		cp.Days = make([]core.DayReport, n)
		for i := range cp.Days {
			d.dayReport(&cp.Days[i])
		}
	} else if d.err == nil {
		d.fail("day report count %d overruns payload", n)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return cp, nil
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

// i64Map / f64Map encode string-keyed maps in sorted key order with
// nil-ness preserved, so map encoding is deterministic and a decoded
// report marshals to the same JSON (nil → null, empty → {}).
func (e *enc) i64Map(m map[string]int64) {
	if m == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.u64(uint64(m[k]))
	}
}

func (d *dec) i64Map() map[string]int64 {
	if d.u8() == 0 {
		return nil
	}
	n, ok := d.count(12)
	if !ok {
		return nil
	}
	m := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k := d.str()
		m[k] = int64(d.u64())
	}
	return m
}

func (e *enc) intMap(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.u64(uint64(int64(m[k])))
	}
}

func (d *dec) intMap(m map[string]int) {
	n, ok := d.count(12)
	if !ok {
		return
	}
	for i := 0; i < n; i++ {
		k := d.str()
		m[k] = int(int64(d.u64()))
	}
}

func (e *enc) f64Map(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.f64(m[k])
	}
}

func (d *dec) f64Map(m map[string]float64) {
	n, ok := d.count(12)
	if !ok {
		return
	}
	for i := 0; i < n; i++ {
		k := d.str()
		m[k] = d.f64()
	}
}

// effects encodes intervention effects (maps in sorted key order; the
// Effects maps are always allocated, so no nil flags).
func (e *enc) effects(ef *interventions.Effects) {
	e.intMap(ef.ClosedFor)
	e.f64Map(ef.ReduceFrac)
	e.intMap(ef.ReduceFor)
	e.f64(ef.VaccinateNow)
	e.intMap(ef.IsolateFor)
}

func (d *dec) effects() *interventions.Effects {
	ef := interventions.NewEffects()
	d.intMap(ef.ClosedFor)
	d.f64Map(ef.ReduceFrac)
	d.intMap(ef.ReduceFor)
	ef.VaccinateNow = d.f64()
	d.intMap(ef.IsolateFor)
	return ef
}

func (e *enc) dayReport(r *core.DayReport) {
	e.u32(uint32(r.Day))
	e.i64Map(r.Counts)
	e.u64(uint64(r.NewInfections))
	e.phaseStats(&r.PersonPhase)
	e.phaseStats(&r.LocationPhase)
	e.phaseStats(&r.UpdatePhase)
	e.u64(uint64(r.Events))
	e.u64(uint64(r.Interactions))
	e.u64(uint64(r.Trials))
	e.str(r.Kernel)
}

func (d *dec) dayReport(r *core.DayReport) {
	r.Day = int(d.u32())
	r.Counts = d.i64Map()
	r.NewInfections = int64(d.u64())
	d.phaseStats(&r.PersonPhase)
	d.phaseStats(&r.LocationPhase)
	d.phaseStats(&r.UpdatePhase)
	r.Events = int64(d.u64())
	r.Interactions = int64(d.u64())
	r.Trials = int64(d.u64())
	r.Kernel = d.str()
}

func (e *enc) phaseStats(ps *charm.PhaseStats) {
	e.u64(uint64(ps.Messages))
	e.u64(uint64(ps.WireMessages))
	e.u64(uint64(ps.Bytes))
	for _, v := range ps.ByLocality {
		e.u64(uint64(v))
	}
	e.i64Map(ps.Reductions)
	if ps.PerPE == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u64(uint64(len(ps.PerPE)))
	for i := range ps.PerPE {
		pe := &ps.PerPE[i]
		e.u64(uint64(pe.MsgsIn))
		e.u64(uint64(pe.MsgsOut))
		e.u64(uint64(pe.WireOut))
		e.u64(uint64(pe.BytesOut))
		e.u64(uint64(pe.Delivered))
	}
}

func (d *dec) phaseStats(ps *charm.PhaseStats) {
	ps.Messages = int64(d.u64())
	ps.WireMessages = int64(d.u64())
	ps.Bytes = int64(d.u64())
	for i := range ps.ByLocality {
		ps.ByLocality[i] = int64(d.u64())
	}
	ps.Reductions = d.i64Map()
	if d.u8() == 0 {
		return
	}
	n, ok := d.count(40)
	if !ok {
		return
	}
	ps.PerPE = make([]charm.PETraffic, n)
	for i := range ps.PerPE {
		pe := &ps.PerPE[i]
		pe.MsgsIn = int64(d.u64())
		pe.MsgsOut = int64(d.u64())
		pe.WireOut = int64(d.u64())
		pe.BytesOut = int64(d.u64())
		pe.Delivered = int64(d.u64())
	}
}
