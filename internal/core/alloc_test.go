package core

import "testing"

// TestDayAllocations holds the day loop to O(ranks) allocations: once the
// first days have grown every slab, window and queue, a simulated day
// allocates its reports (three PhaseStats, the counts map) and nothing per
// visit, per message or per location. The bounds are several times what a
// day takes today and a hundredth of one allocation per visit.
func TestDayAllocations(t *testing.T) {
	pop := testPop(t)
	for _, kernel := range []string{KernelDense, KernelAuto} {
		e, err := New(Config{Population: pop, Disease: hotModel(), Days: 40, Seed: 71,
			InitialInfections: 5, Ranks: 6, AggBufferSize: 64, Kernel: kernel})
		if err != nil {
			t.Fatal(err)
		}
		day := 0
		for day < 3 {
			day++
			e.RunDay(day)
		}
		var messages int64
		allocs := testing.AllocsPerRun(3, func() {
			day++
			rep := e.RunDay(day)
			messages += rep.PersonPhase.Messages
			if want := map[string]string{KernelDense: KernelDense, KernelAuto: kernelActive}[kernel]; rep.Kernel != want {
				t.Fatalf("day %d ran on kernel %q, want %q", day, rep.Kernel, want)
			}
		})
		t.Logf("kernel %s: %.0f allocations per day, %d visit messages over days 4-%d", kernel, allocs, messages, day)
		if messages < 5000 {
			t.Fatalf("kernel %s: only %d visit messages sent: the days measured did no work", kernel, messages)
		}
		if allocs > 300 {
			t.Errorf("kernel %s: %.0f allocations per simulated day, want at most 300", kernel, allocs)
		}
	}
}
