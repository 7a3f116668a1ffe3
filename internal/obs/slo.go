package obs

import (
	"fmt"
	"io"
	"time"
)

// SLOSpec declares one service-level objective evaluated from the
// metrics history ring. Two modes:
//
//   - availability: Total names the scalar counting all attempts and Bad
//     the scalar counting failed ones (good = total − bad);
//   - latency: Histogram names a latency family and ThresholdSeconds the
//     budget — an observation is good when it is ≤ the threshold,
//     estimated from the window's bucket deltas by interpolation.
//
// Burn rate is the standard error-budget definition: error_rate divided
// by the budget (1 − objective). Burn 1.0 consumes the budget exactly at
// the rate the objective allows; burn 14 on a 5m window is the classic
// page-now signal.
type SLOSpec struct {
	Name      string
	Help      string
	Objective float64 // e.g. 0.99

	// Availability mode.
	Total string
	Bad   string

	// Latency mode.
	Histogram        string
	ThresholdSeconds float64

	// Windows are the evaluation windows (default 5m and 1h).
	Windows []time.Duration
}

// DefaultSLOWindows are the multi-window pair burn alerts conventionally
// use: a short window to catch fast burns and a long one to confirm
// sustained ones.
func DefaultSLOWindows() []time.Duration {
	return []time.Duration{5 * time.Minute, time.Hour}
}

// SLOWindow is one window's evaluation.
type SLOWindow struct {
	Window string `json:"window"` // "5m0s" → rendered via WindowLabel as "5m"
	// Seconds is the window actually covered (shorter than nominal while
	// the ring is young).
	Seconds   float64 `json:"seconds"`
	Good      float64 `json:"good"`
	Total     float64 `json:"total"`
	ErrorRate float64 `json:"error_rate"`
	BurnRate  float64 `json:"burn_rate"`
}

// SLOStatus is one SLO's current multi-window evaluation.
type SLOStatus struct {
	Name      string  `json:"name"`
	Help      string  `json:"help,omitempty"`
	Objective float64 `json:"objective"`
	// Stale marks burn rates computed over windows containing stale data
	// (unreachable backends' last-known snapshots, or a ring that stopped
	// advancing) — consumers must not treat them as live.
	Stale   bool        `json:"stale,omitempty"`
	Windows []SLOWindow `json:"windows"`
}

// WindowLabel renders a duration the way dashboards write windows:
// "5m", "1h", "90s" — not time.Duration's "5m0s". SLO windows and the
// /v1/metrics/history reply's window keys both use it.
func WindowLabel(d time.Duration) string {
	if d >= time.Hour && d%time.Hour == 0 {
		return fmt.Sprintf("%dh", d/time.Hour)
	}
	if d >= time.Minute && d%time.Minute == 0 {
		return fmt.Sprintf("%dm", d/time.Minute)
	}
	return fmt.Sprintf("%ds", int(d.Seconds()))
}

// EvalSLOs evaluates every spec against the ring's current contents.
// Windows the ring cannot cover yet evaluate over what is there (Seconds
// says how much); an empty or single-point ring yields zeroed windows so
// the metric set stays stable from the first scrape.
func EvalSLOs(h *History, specs []SLOSpec) []SLOStatus {
	out := make([]SLOStatus, 0, len(specs))
	for _, spec := range specs {
		windows := spec.Windows
		if len(windows) == 0 {
			windows = DefaultSLOWindows()
		}
		st := SLOStatus{
			Name:      spec.Name,
			Help:      spec.Help,
			Objective: spec.Objective,
		}
		for _, d := range windows {
			sw := SLOWindow{Window: WindowLabel(d)}
			if w, ok := h.Window(d); ok {
				sw.Seconds = w.Actual.Seconds()
				sw.Good, sw.Total = spec.goodTotal(w)
				if w.Stale {
					st.Stale = true
				}
				if sw.Total > 0 {
					sw.ErrorRate = (sw.Total - sw.Good) / sw.Total
					if budget := 1 - spec.Objective; budget > 0 {
						sw.BurnRate = sw.ErrorRate / budget
					}
				}
			}
			st.Windows = append(st.Windows, sw)
		}
		out = append(out, st)
	}
	return out
}

// goodTotal extracts one window's good/total counts per the spec's mode.
func (spec SLOSpec) goodTotal(w WindowStats) (good, total float64) {
	if spec.Histogram != "" {
		hs, ok := w.Hist(spec.Histogram)
		if !ok || hs.Count == 0 {
			return 0, 0
		}
		total = float64(hs.Count)
		good = hs.CountAtOrBelow(spec.ThresholdSeconds)
		if good > total {
			good = total
		}
		return good, total
	}
	total = w.Deltas[spec.Total]
	bad := w.Deltas[spec.Bad]
	if bad > total {
		bad = total
	}
	return total - bad, total
}

// WriteSLOProm renders SLO evaluations as Prometheus text series:
//
//	episim_slo_objective{slo="..."}
//	episim_slo_error_rate{slo="...",window="5m"}
//	episim_slo_burn_rate{slo="...",window="5m"}
//	episim_slo_stale{slo="..."}
//
// Every family always renders for every SLO (zeros while the ring is
// young), so scrapes and alert rules see a stable series set.
func WriteSLOProm(w io.Writer, sts []SLOStatus) {
	if len(sts) == 0 {
		return
	}
	fmt.Fprint(w, "# HELP episim_slo_objective The SLO's target success ratio.\n# TYPE episim_slo_objective gauge\n")
	for _, st := range sts {
		fmt.Fprintf(w, "episim_slo_objective{slo=%q} %s\n", st.Name, formatFloat(st.Objective))
	}
	fmt.Fprint(w, "# HELP episim_slo_error_rate Fraction of the window's events that violated the SLO.\n# TYPE episim_slo_error_rate gauge\n")
	for _, st := range sts {
		for _, sw := range st.Windows {
			fmt.Fprintf(w, "episim_slo_error_rate{slo=%q,window=%q} %s\n", st.Name, sw.Window, formatFloat(sw.ErrorRate))
		}
	}
	fmt.Fprint(w, "# HELP episim_slo_burn_rate Error-budget burn rate over the window (1.0 = burning exactly the budget).\n# TYPE episim_slo_burn_rate gauge\n")
	for _, st := range sts {
		for _, sw := range st.Windows {
			fmt.Fprintf(w, "episim_slo_burn_rate{slo=%q,window=%q} %s\n", st.Name, sw.Window, formatFloat(sw.BurnRate))
		}
	}
	fmt.Fprint(w, "# HELP episim_slo_stale 1 when the SLO's windows include stale (last-known) data.\n# TYPE episim_slo_stale gauge\n")
	for _, st := range sts {
		v := 0
		if st.Stale {
			v = 1
		}
		fmt.Fprintf(w, "episim_slo_stale{slo=%q} %d\n", st.Name, v)
	}
}
