package machine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/charm"
)

func TestSyncCostOrdering(t *testing.T) {
	c := BlueWatersXE6()
	if c.SyncCost(1024, charm.QuiescenceDetection) <= c.SyncCost(1024, charm.CompletionDetection) {
		t.Fatal("QD must cost more than CD")
	}
	if c.SyncCost(1<<17, charm.CompletionDetection) <= c.SyncCost(64, charm.CompletionDetection) {
		t.Fatal("sync cost must grow with PE count")
	}
	if c.SyncCost(0, charm.CompletionDetection) <= 0 {
		t.Fatal("degenerate PE count must still cost something")
	}
}

func TestPhaseTimeComputeOnly(t *testing.T) {
	c := BlueWatersXE6()
	ranks := []RankPhase{{Compute: 1.0}, {Compute: 2.5}, {Compute: 0.5}}
	pc := c.PhaseTime(ranks, charm.CompletionDetection)
	if pc.Compute != 2.5 {
		t.Fatalf("compute = %v, want slowest rank 2.5", pc.Compute)
	}
	if pc.Total <= 2.5 {
		t.Fatal("total must include sync")
	}
}

func TestPhaseTimeMessagingCosts(t *testing.T) {
	c := BlueWatersXE6()
	c.SMPEnabled = false // full per-message cost on compute threads
	quiet := []RankPhase{{Compute: 0.001}}
	noisy := []RankPhase{{Compute: 0.001, WireOutInter: 100000, WireInInter: 100000}}
	tq := c.PhaseTime(quiet, charm.CompletionDetection).Total
	tn := c.PhaseTime(noisy, charm.CompletionDetection).Total
	if tn <= tq {
		t.Fatal("messages must cost time")
	}
	// 100k sends (1.1us) + 100k recvs (0.9us) = 0.2s overhead alone.
	if tn < 0.2 {
		t.Fatalf("noisy phase %v too cheap", tn)
	}
}

func TestSMPOffloadReducesOverhead(t *testing.T) {
	smp := BlueWatersXE6()
	noSmp := smp
	noSmp.SMPEnabled = false
	ranks := []RankPhase{{Compute: 0.01, WireOutInter: 50000, WireInInter: 50000}}
	tSMP := smp.PhaseTime(ranks, charm.CompletionDetection).Overhead
	tNo := noSmp.PhaseTime(ranks, charm.CompletionDetection).Overhead
	if tSMP >= tNo {
		t.Fatalf("SMP overhead %v !< non-SMP %v", tSMP, tNo)
	}
	ratio := tNo / tSMP
	want := 1 / (1 - smp.CommThreadOffload)
	if math.Abs(ratio-want)/want > 0.01 {
		t.Fatalf("offload ratio %v, want %v", ratio, want)
	}
}

func TestSoftwareOverheadFactor(t *testing.T) {
	opt := BlueWatersXE6()
	noOpt := opt
	noOpt.SoftwareOverheadFactor = 2.5
	ranks := []RankPhase{{Compute: 0.001, WireOutInter: 10000, WireInInter: 10000}}
	a := opt.PhaseTime(ranks, charm.CompletionDetection).Overhead
	b := noOpt.PhaseTime(ranks, charm.CompletionDetection).Overhead
	if math.Abs(b/a-2.5) > 0.01 {
		t.Fatalf("software factor not applied: %v vs %v", a, b)
	}
}

func TestBandwidthTerm(t *testing.T) {
	c := BlueWatersXE6()
	small := []RankPhase{{Compute: 0.001, BytesOut: 1 << 10}}
	big := []RankPhase{{Compute: 0.001, BytesOut: 1 << 30}}
	ts := c.PhaseTime(small, charm.CompletionDetection).Network
	tb := c.PhaseTime(big, charm.CompletionDetection).Network
	if tb <= ts {
		t.Fatal("bytes must cost network time")
	}
	// 1 GiB at 4 GB/s ≈ 0.27 s.
	if tb < 0.2 || tb > 0.4 {
		t.Fatalf("1GiB serialization = %v, want ≈0.27", tb)
	}
}

func TestDayTime(t *testing.T) {
	c := BlueWatersXE6()
	person := []RankPhase{{Compute: 1}}
	location := []RankPhase{{Compute: 2}}
	update := []RankPhase{{Compute: 0.1}}
	d := c.DayTime(person, location, update, charm.CompletionDetection)
	if d.Total < 3.1 {
		t.Fatalf("day total %v below compute sum", d.Total)
	}
	if d.Total != d.Person.Total+d.Location.Total+d.Update.Total {
		t.Fatal("day total is not the sum of phases")
	}
}

func TestSpeedupEfficiency(t *testing.T) {
	if Speedup(100, 10) != 10 {
		t.Fatal("speedup")
	}
	if Speedup(1, 0) != 0 {
		t.Fatal("degenerate speedup")
	}
	if Efficiency(100, 10, 20) != 0.5 {
		t.Fatal("efficiency")
	}
	if Efficiency(1, 1, 0) != 0 {
		t.Fatal("degenerate efficiency")
	}
}

func TestStrongScalingShape(t *testing.T) {
	// A perfectly divisible workload must scale until sync/overhead
	// dominate — the basic sanity of Figure 13's model.
	c := BlueWatersXE6()
	total := 100.0 // seconds of compute
	var prev float64
	for _, p := range []int{1, 4, 16, 64, 256} {
		ranks := make([]RankPhase, p)
		for i := range ranks {
			ranks[i].Compute = total / float64(p)
		}
		tp := c.PhaseTime(ranks, charm.CompletionDetection).Total
		if prev != 0 && tp >= prev {
			t.Fatalf("no scaling at p=%d: %v >= %v", p, tp, prev)
		}
		prev = tp
	}
}

func TestSerialBottleneckFlattens(t *testing.T) {
	// One rank holding l_max of compute bounds scaling: the Section III-B
	// phenomenon the machine model must reproduce.
	c := BlueWatersXE6()
	lmax := 1.0
	times := map[int]float64{}
	for _, p := range []int{16, 256, 4096} {
		ranks := make([]RankPhase, p)
		ranks[0].Compute = lmax
		for i := 1; i < p; i++ {
			ranks[i].Compute = lmax / 100
		}
		times[p] = c.PhaseTime(ranks, charm.CompletionDetection).Total
	}
	if times[4096] < lmax {
		t.Fatal("cannot beat the serial bottleneck")
	}
	if times[4096] < times[256]*0.5 {
		t.Fatal("bottlenecked phase should not keep scaling")
	}
}

func TestPhaseTimeProperty(t *testing.T) {
	c := BlueWatersXE6()
	f := func(comp uint16, out uint16, in uint16) bool {
		r := RankPhase{
			Compute:      float64(comp) / 1000,
			WireOutInter: int64(out),
			WireInInter:  int64(in),
		}
		pc := c.PhaseTime([]RankPhase{r}, charm.CompletionDetection)
		// Total dominates every component and is finite.
		return pc.Total >= pc.Compute && pc.Total >= pc.Sync &&
			!math.IsNaN(pc.Total) && !math.IsInf(pc.Total, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyPhase(t *testing.T) {
	c := BlueWatersXE6()
	pc := c.PhaseTime(nil, charm.CompletionDetection)
	if pc.Total != pc.Sync {
		t.Fatal("empty phase should cost only sync")
	}
}
