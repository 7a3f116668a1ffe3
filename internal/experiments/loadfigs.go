package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/des"
	"repro/internal/loadmodel"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// desSamples are measured location-days, one per index: workload
// counters plus measured Go execution seconds of the DES.
type desSamples struct {
	events, interactions, sumReciprocal, seconds []float64
}

// measureDES synthesizes location-days across a range of visitor counts
// and measures the real DES execution time of each — the measurement
// behind Figure 3(a,b). Like the paper ("we build the model by measuring
// LocationManagers' processing time due to the limited timer precision"),
// each point repeats the DES enough times for the timer to resolve it.
func measureDES(opt Options) desSamples {
	sz := opt.sizes()
	// Room density and infectious fraction vary per point so the dynamic
	// model's interaction terms are not collinear with the event count.
	divisors := []int{12, 30, 60}
	infFracs := []float64{0.1, 0.25, 0.4}
	var samples desSamples
	for _, n := range sz.desVisitors {
		for pt := 0; pt < sz.desPoints; pt++ {
			s := xrand.NewStream(opt.Seed + uint64(n*100+pt))
			visitors := make([]des.Visitor, n)
			subs := 1 + n/divisors[pt%len(divisors)]
			infFrac := infFracs[(pt/len(divisors))%len(infFracs)]
			for i := range visitors {
				start := int16(s.Intn(1200))
				inf := 0.0
				if s.Float64() < infFrac {
					inf = 1
				}
				visitors[i] = des.Visitor{
					Person:         int32(i),
					Sub:            int32(s.Intn(subs)),
					Start:          start,
					End:            start + int16(20+s.Intn(300)),
					Infectivity:    inf,
					Susceptibility: float64(s.Intn(2)),
				}
			}
			p := des.Params{Day: uint64(pt), LocKey: uint64(n), Tau: 5e-5}
			var r des.Result
			// Warm up, then time enough repetitions to resolve.
			des.Simulate(visitors, p, &r)
			reps := 1 + 20000/(n+1)
			var elapsed time.Duration
			for {
				r.Reset()
				start := time.Now()
				for rep := 0; rep < reps; rep++ {
					r.Reset()
					des.Simulate(visitors, p, &r)
				}
				elapsed = time.Since(start)
				if elapsed > 2*time.Millisecond || reps > 1<<20 {
					break
				}
				reps *= 4
			}
			samples.events = append(samples.events, float64(r.Events))
			samples.interactions = append(samples.interactions, float64(r.Interactions))
			samples.sumReciprocal = append(samples.sumReciprocal, r.SumReciprocal)
			samples.seconds = append(samples.seconds, elapsed.Seconds()/float64(reps))
		}
	}
	return samples
}

// runFig3 regenerates Figure 3: (a) the static load model fitted against
// measured DES times with its mean relative error (paper: ≈5%); (b) the
// dynamic model fit quality; (c) the location in-degree distribution; (d)
// the static load distribution.
func runFig3(w io.Writer, opt Options) error {
	// (a) static model: predicted vs observed.
	samples := measureDES(opt)
	events, inter, recip, secs := samples.events, samples.interactions, samples.sumReciprocal, samples.seconds
	static, err := loadmodel.FitStatic(events, secs)
	if err != nil {
		return err
	}
	var pred []float64
	for _, e := range events {
		pred = append(pred, static.Load(e))
	}
	errStatic := stats.MeanRelativeError(pred, secs)
	errWeighted := timeWeightedError(pred, secs)
	fmt.Fprintf(w, "Figure 3(a) — static load model (piecewise linear, crossover phi=%.0f events)\n", static.Phi)
	fmt.Fprintf(w, "%10s %14s %14s\n", "events", "observed(s)", "predicted(s)")
	for i := 0; i < len(events); i += max(1, len(events)/10) {
		fmt.Fprintf(w, "%10.0f %14.3e %14.3e\n", events[i], secs[i], pred[i])
	}
	fmt.Fprintf(w, "time-weighted error %.1f%% (paper: ~5%% on LM-level measurements); unweighted per-point %.1f%%\n\n",
		errWeighted*100, errStatic*100)

	// (b) dynamic model.
	dyn, err := loadmodel.FitDynamic(events, inter, recip, secs)
	if err != nil {
		return err
	}
	var dynPred []float64
	for i := range events {
		dynPred = append(dynPred, dyn.Load(events[i], inter[i], recip[i]))
	}
	fmt.Fprintf(w, "Figure 3(b) — dynamic load model Y = %.3g + %.3g*events + %.3g*inter + %.3g*recip\n",
		dyn.C0, dyn.C1, dyn.C2, dyn.C3)
	fmt.Fprintf(w, "R^2 = %.3f, time-weighted error %.1f%% (run-time only; not used for partitioning)\n\n",
		stats.R2(dynPred, secs), timeWeightedError(dynPred, secs)*100)

	// (c, d) distributions for the Table II states.
	states := opt.sizes().states
	fmt.Fprintf(w, "Figure 3(c) — location in-degree CCDF (unique visitors), 1:%d scale\n", opt.AnalysisScale)
	for _, name := range states {
		pop, err := statePop(name, opt.AnalysisScale, opt.Seed)
		if err != nil {
			return err
		}
		printCCDFRow(w, name, degrees(pop))
	}
	fmt.Fprintf(w, "\nFigure 3(d) — static load CCDF per location (model units)\n")
	for _, name := range states {
		l, err := locate(name, opt.AnalysisScale, opt.Seed, 0)
		if err != nil {
			return err
		}
		printCCDFRow(w, name, l.loads)
	}
	return nil
}

// timeWeightedError is sum(|pred-obs|)/sum(obs): the error of the model on
// aggregate predicted time, the quantity partitioning actually consumes.
// The paper's ~5% figure is measured at LocationManager granularity where
// sub-microsecond locations cannot dominate, which this weighting mirrors.
func timeWeightedError(pred, obs []float64) float64 {
	var num, den float64
	for i := range pred {
		d := pred[i] - obs[i]
		if d < 0 {
			d = -d
		}
		num += d
		den += obs[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// printCCDFRow prints a compact log-spaced CCDF: count of items with value
// >= x for decade thresholds, plus the tail exponent estimate.
func printCCDFRow(w io.Writer, name string, xs []float64) {
	s := stats.Summarize(xs)
	alpha := stats.PowerLawAlpha(xs, s.Mean*4)
	fmt.Fprintf(w, "%-4s n=%-8d mean=%-10.4g max=%-10.4g tail-alpha=%-5.2f ccdf:",
		name, s.N, s.Mean, s.Max, alpha)
	for x := s.Mean; x <= s.Max; x *= 4 {
		count := 0
		for _, v := range xs {
			if v >= x {
				count++
			}
		}
		fmt.Fprintf(w, " >=%.3g:%d", x, count)
	}
	fmt.Fprintln(w)
}
