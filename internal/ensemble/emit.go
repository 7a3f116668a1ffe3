package ensemble

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
)

// WriteJSON emits the full sweep result as indented JSON. The encoding
// is deterministic: struct fields emit in declaration order, map keys
// sort, and every float was computed in replicate-index order — so the
// same spec and master seed produce byte-identical output regardless of
// worker count.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteSummaryCSV emits one row per cell with the headline scalars:
// attack-rate mean and confidence interval, peak day and height. Failed
// cells are skipped — an all-zero row would be indistinguishable from a
// genuine zero-outbreak result; the JSON emitter carries their errors.
func (r *SweepResult) WriteSummaryCSV(w io.Writer) error {
	if _, err := io.WriteString(w,
		"population,placement,model,scenario,replicates,"+
			"attack_mean,attack_ci_lo,attack_ci_hi,"+
			"peak_day_mean,peak_height_mean,total_infections_mean\n"); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if c.Error != "" {
			continue
		}
		_, err := fmt.Fprintf(w, "%s,%s,%s,%s,%d,%s,%s,%s,%s,%s,%s\n",
			csvField(c.Population), csvField(c.Placement), csvField(c.Model), csvField(c.Scenario),
			c.Replicates,
			ftoa(c.AttackRate.Mean), ftoa(c.AttackRate.CILo), ftoa(c.AttackRate.CIHi),
			ftoa(c.PeakDay.Mean), ftoa(c.PeakHeight.Mean), ftoa(c.TotalInfections.Mean))
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteCurvesCSV emits the per-day aggregate epidemic curves in long
// form: one row per (cell, day) with the mean and each requested
// quantile as its own column (q10, q50, q90, ...). Failed cells have no
// curves and are skipped (their Days is 0).
func (r *SweepResult) WriteCurvesCSV(w io.Writer) error {
	header := "population,placement,model,scenario,day,mean"
	for _, q := range r.Spec.Quantiles {
		header += ",q" + strconv.FormatFloat(q*100, 'g', -1, 64)
	}
	if _, err := io.WriteString(w, header+"\n"); err != nil {
		return err
	}
	for _, c := range r.Cells {
		for d := 0; d < c.Days; d++ {
			row := fmt.Sprintf("%s,%s,%s,%s,%d,%s",
				csvField(c.Population), csvField(c.Placement), csvField(c.Model), csvField(c.Scenario),
				d, ftoa(c.MeanCurve[d]))
			for _, qc := range c.QuantileCurves {
				row += "," + ftoa(qc[d])
			}
			if _, err := io.WriteString(w, row+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// ftoa formats a float the way the JSON encoder does (shortest
// round-trip representation), keeping the two emitters consistent.
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// csvField quotes a field if it contains a separator.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// ResultJSON is the machine-readable form of a single simulation Result,
// shared by `episim run -json` and the examples: the headline scalars,
// derived peak metrics, the epidemic curve and the full per-day reports.
type ResultJSON struct {
	TotalInfections int64            `json:"total_infections"`
	AttackRate      float64          `json:"attack_rate"`
	PeakDay         int              `json:"peak_day"`
	PeakHeight      int64            `json:"peak_height"`
	FinalCounts     map[string]int64 `json:"final_counts"`
	EpiCurve        []int64          `json:"epi_curve"`
	Days            []core.DayReport `json:"days"`
}

// NewResultJSON derives the encoding of one Result.
func NewResultJSON(res *core.Result) ResultJSON {
	curve := res.EpiCurve()
	day, height := peakOf(curve)
	return ResultJSON{
		TotalInfections: res.TotalInfections,
		AttackRate:      res.AttackRate,
		PeakDay:         day,
		PeakHeight:      height,
		FinalCounts:     res.FinalCounts,
		EpiCurve:        curve,
		Days:            res.Days,
	}
}

// EncodeResult writes one Result as indented JSON.
func EncodeResult(w io.Writer, res *core.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewResultJSON(res))
}
