package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/disease"
	"repro/internal/interventions"
)

// testCheckpoint builds a real checkpoint after days simulated days of
// kernel, under a scenario whose first rule fires on day 2: past that day
// every field the codec carries (sparse sets, effects, rule latches, phase
// stats) holds live values rather than zeros. KernelThreshold 1 keeps the
// event kernel's latch engaged.
func testCheckpoint(t *testing.T, kernel string, days int) *core.Checkpoint {
	t.Helper()
	pop := testPopulation(t)
	m := disease.Default()
	m.Transmissibility = 4e-4
	sc, err := interventions.Parse("when day >= 2 { close school for 3 }\nwhen day >= 99 { close work for 2 }")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{Population: pop, Disease: m, Scenario: sc,
		Days: 12, Seed: 11, InitialInfections: 5, Ranks: 3, Kernel: kernel, KernelThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := eng.RunPrefix(days)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cumulative == 0 || len(cp.Days) != days {
		t.Fatalf("fixture checkpoint is degenerate: %d infections, %d days", cp.Cumulative, len(cp.Days))
	}
	if fired := days >= 2; len(cp.RuleFired) != 2 || cp.RuleFired[0] != fired || cp.RuleFired[1] {
		t.Fatalf("fixture rule latches = %v, want [%v false]", cp.RuleFired, fired)
	}
	return cp
}

// TestCheckpointRoundTrip: decode(encode(cp)) is lossless and
// re-encoding the decoded checkpoint is byte-identical — checkpoints are
// content-addressed, so the codec must be deterministic like every other
// artifact kind. It covers every kernel's day reports (labelled ones, and
// the event kernel's latch) and a day-0 checkpoint with no reports.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name, kernel string
		days         int
	}{
		{"default", "", 6},
		{"dense", core.KernelDense, 6},
		{"auto", core.KernelAuto, 6},
		{"event", core.KernelEvent, 6},
		{"day 0", "", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cp := testCheckpoint(t, c.kernel, c.days)
			for _, d := range cp.Days {
				if (d.Kernel != "") != (c.kernel != "") {
					t.Fatalf("day %d labelled %q under kernel %q", d.Day, d.Kernel, c.kernel)
				}
			}
			if cp.EventOn != (c.kernel == core.KernelEvent) {
				t.Fatalf("EventOn = %v under kernel %q", cp.EventOn, c.kernel)
			}
			payload := EncodeCheckpoint(cp)
			got, err := DecodeCheckpoint(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cp, got) {
				t.Fatalf("decoded checkpoint differs from original:\n%+v\nvs\n%+v", got, cp)
			}
			if !bytes.Equal(payload, EncodeCheckpoint(got)) {
				t.Fatal("re-encode of decoded checkpoint is not byte-identical")
			}
		})
	}
}

// TestCheckpointEnvelopeRejects mirrors the placement envelope tests for
// the checkpoint kind: truncation, bit rot, kind and key mismatches all
// surface as ErrInvalid (a miss, so the sweep rebuilds the prefix), and
// corrupt payloads past the envelope degrade to errors, never panics.
func TestCheckpointEnvelopeRejects(t *testing.T) {
	payload := EncodeCheckpoint(testCheckpoint(t, "", 6))
	sealed := Seal(KindCheckpoint, "ck1", payload)

	if got, err := Open(sealed, KindCheckpoint, "ck1"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("clean open failed: %v", err)
	}
	cases := map[string][]byte{
		"truncated header": sealed[:8],
		"truncated body":   sealed[:len(sealed)/2],
		"missing trailer":  sealed[:len(sealed)-3],
	}
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bit flip"] = flipped
	for name, data := range cases {
		if _, err := Open(data, KindCheckpoint, "ck1"); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
	if _, err := Open(sealed, KindPlacement, "ck1"); !errors.Is(err, ErrInvalid) {
		t.Fatal("kind mismatch must be ErrInvalid")
	}
	if _, err := Open(sealed, KindCheckpoint, "other"); !errors.Is(err, ErrInvalid) {
		t.Fatal("key mismatch must be ErrInvalid")
	}

	if _, err := DecodeCheckpoint(payload[:len(payload)-5]); !errors.Is(err, ErrInvalid) {
		t.Fatalf("truncated payload: %v", err)
	}
	if _, err := DecodeCheckpoint(append(append([]byte(nil), payload...), 9)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("trailing garbage: %v", err)
	}

	// The JSON sections: a length that overruns the payload, and bytes
	// that are not the JSON they claim to be.
	at := bytes.Index(payload, []byte(`{"ClosedFor"`))
	if at < 8 {
		t.Fatal("effects section not found in the payload")
	}
	overrun := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(overrun[at-8:], uint64(len(payload)))
	garbled := append([]byte(nil), payload...)
	garbled[at] = '['
	for name, data := range map[string][]byte{"JSON section overrun": overrun, "garbled JSON section": garbled} {
		if _, err := DecodeCheckpoint(data); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: %v, want ErrInvalid", name, err)
		}
	}

	// Adversarial counts wrap-check: a huge sparse-set count must fail
	// the bounds check instead of reaching makeslice.
	e := &enc{}
	e.u32(3)
	e.u64(5)
	e.bool(false)
	e.i32s(nil)
	e.i32s(nil)
	e.i32s(nil)
	e.bools(nil)
	e.u32(0xFFFFFFFF) // infectious PM count
	e.b = append(e.b, make([]byte, 64)...)
	if _, err := DecodeCheckpoint(e.b); !errors.Is(err, ErrInvalid) {
		t.Fatalf("overflowing set count: %v, want ErrInvalid", err)
	}
}

// TestCheckpointStoreHeal: a checkpoint artifact truncated on disk reads
// as ErrInvalid, is removed, and the slot heals on the next Put — same
// contract as every other kind, pinned here because checkpoints are the
// largest artifacts the store holds.
func TestCheckpointStoreHeal(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := EncodeCheckpoint(testCheckpoint(t, "", 6))
	if err := st.Put(KindCheckpoint, "ck", payload); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(KindCheckpoint, "ck")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip through store failed: %v", err)
	}

	var path string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(p) == artExt {
			path = p
		}
		return nil
	})
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(KindCheckpoint, "ck"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("corrupt get: %v, want ErrInvalid", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint was not removed")
	}
	if err := st.Put(KindCheckpoint, "ck", payload); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get(KindCheckpoint, "ck"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("heal failed: %v", err)
	}
}

// TestEncodeCheckpointSizesExactly: EncodeCheckpoint sizes its buffer to
// the byte, JSON sections included, so no encode regrows it, on the dense
// and event kernels' checkpoints and the hand-built ones.
func TestEncodeCheckpointSizesExactly(t *testing.T) {
	for i, cp := range append(oracleCheckpoints(t), testCheckpoint(t, core.KernelDense, 6)) {
		if b := EncodeCheckpoint(cp); len(b) != cap(b) {
			t.Errorf("checkpoint %d: %d bytes in a buffer of %d", i, len(b), cap(b))
		}
	}
}

// TestCheckpointOwnsArrays: a decoded checkpoint shares no memory with
// its payload, at every alignment of the payload, so overwriting the
// payload afterwards changes nothing a restore reads.
func TestCheckpointOwnsArrays(t *testing.T) {
	for i, cp := range oracleCheckpoints(t) {
		want := EncodeCheckpoint(cp)
		for shift := range 8 {
			payload := append(make([]byte, shift), want...)[shift:]
			got, err := DecodeCheckpoint(payload)
			if err != nil {
				t.Fatal(err)
			}
			for j := range payload {
				payload[j] = 0xa5
			}
			if !bytes.Equal(EncodeCheckpoint(got), want) {
				t.Errorf("checkpoint %d at offset %d changed with the payload it was decoded from", i, shift)
			}
		}
	}
}
