// Command episim-top is a terminal ops console for an episim fleet: it
// polls a gateway's (or a single daemon's) /v1/stats and /v1/usage and
// renders a live view — fleet load, per-backend health and queue depths,
// SLO error-budget burn rates, and the top clients by consumed
// simulation time.
//
// Usage:
//
//	episim-top -addr http://localhost:8320
//	episim-top -addr http://localhost:8321 -once   # one frame, no ANSI (CI, scripts)
//
// Pointed at a gateway it shows the whole fleet; pointed at one episimd
// it shows that instance (the backend table is simply empty). -once
// prints a single frame and exits, which is what the CI smoke test runs.
//
// Burn rates come from the request-outcome counters and the queue-wait
// histogram every /v1/stats reply carries: burn(Δ) over the interval
// between this poll and the previous one, burn(all) since the target
// started.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// options are the console's four flags.
type options struct {
	addr     string
	interval time.Duration
	once     bool
	topN     int
}

// parseFlags parses and validates the command line: a negative -top or
// a non-positive -interval is a usage error.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("episim-top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", "http://localhost:8320", "gateway or daemon base URL")
	fs.DurationVar(&o.interval, "interval", 2*time.Second, "refresh cadence")
	fs.BoolVar(&o.once, "once", false, "render one frame without ANSI control codes and exit")
	fs.IntVar(&o.topN, "top", 8, "usage rows shown (top clients by sim-seconds)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.topN < 0:
		return o, fmt.Errorf("-top must be >= 0, got %d", o.topN)
	case o.interval <= 0:
		return o, fmt.Errorf("-interval must be > 0, got %v", o.interval)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "episim-top:", err)
		os.Exit(2)
	}
	base := strings.TrimRight(o.addr, "/")
	httpc := &http.Client{Timeout: 10 * time.Second}

	var prev *cluster.StatsReply
	for {
		p, err := fetch(httpc, base)
		if o.once {
			if err != nil {
				fmt.Fprintln(os.Stderr, "episim-top:", err)
				os.Exit(1)
			}
			fmt.Print(render(base, nil, p, o.topN))
			return
		}
		// Clear + home between frames; errors render in-place so a
		// restarting gateway shows as a blinking error, not an exit.
		fmt.Print("\x1b[2J\x1b[H")
		if err != nil {
			fmt.Printf("episim-top: %v (retrying every %v)\n", err, o.interval)
		} else {
			fmt.Print(render(base, prev, p, o.topN))
			prev = &p.st
		}
		time.Sleep(o.interval)
	}
}

// getJSON fetches one endpoint into out. /v1/usage only exists on
// current builds, so callers treat its errors as soft.
func getJSON(httpc *http.Client, url string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// poll is one frame's replies.
type poll struct {
	st       cluster.StatsReply
	usage    client.UsageReply
	usageErr error
}

// fetch takes one poll. Only /v1/stats is load-bearing: a target without
// /v1/usage still renders load, backends and burn rates.
func fetch(httpc *http.Client, base string) (poll, error) {
	var p poll
	if err := getJSON(httpc, base+"/v1/stats", &p.st); err != nil {
		return p, err
	}
	p.usageErr = getJSON(httpc, base+"/v1/usage", &p.usage)
	return p, nil
}

// queueWaitBudget is the queue-wait objective's latency budget: a sweep
// that waited at most this long for an execution slot counts as good.
const queueWaitBudget = 30 * time.Second

// slo is one objective evaluated from two /v1/stats replies: goodTotal
// returns the good and total events between prev and cur.
type slo struct {
	name      string
	objective float64
	goodTotal func(prev, cur client.StatsReply) (good, total float64)
}

// availability counts attempts and the failed subset by two counters.
func availability(attempts, failed func(client.StatsReply) int64) func(prev, cur client.StatsReply) (float64, float64) {
	return func(prev, cur client.StatsReply) (float64, float64) {
		total := float64(attempts(cur) - attempts(prev))
		bad := min(float64(failed(cur)-failed(prev)), total)
		return total - bad, total
	}
}

var slos = []slo{
	{"submit-availability", 0.99, availability(
		func(st client.StatsReply) int64 { return st.SubmitsTotal },
		func(st client.StatsReply) int64 { return st.SubmitErrors })},
	// CountAtOrBelow is linear in the bucket counts, so the difference of
	// two snapshots' estimates is the estimate for the waits between them.
	{"queue-wait", 0.99, func(prev, cur client.StatsReply) (float64, float64) {
		p, c := queueWait(prev), queueWait(cur)
		total := float64(c.Count - p.Count)
		good := c.CountAtOrBelow(queueWaitBudget.Seconds()) - p.CountAtOrBelow(queueWaitBudget.Seconds())
		return min(good, total), total
	}},
	// EventsSent counts deliveries only, so attempts are sent + failed.
	{"event-delivery", 0.999, availability(
		func(st client.StatsReply) int64 { return st.EventsSent + st.EventsSendErrors },
		func(st client.StatsReply) int64 { return st.EventsSendErrors })},
}

// queueWait is the reply's queue-wait histogram, empty when it has none.
func queueWait(st client.StatsReply) obs.HistogramSnapshot {
	for _, h := range st.Histograms {
		if h.Name == "episimd_queue_wait_seconds" {
			return h
		}
	}
	return obs.HistogramSnapshot{}
}

// burn is the error-budget burn rate: the error rate over the budget
// 1 − objective. Burn 1.0 spends the budget exactly as fast as the
// objective allows; an interval with no events burns nothing.
func (s slo) burn(prev, cur client.StatsReply) float64 {
	good, total := s.goodTotal(prev, cur)
	if total <= 0 {
		return 0
	}
	return (total - good) / total / (1 - s.objective)
}

// restarted reports whether any counter the SLOs read went backwards
// between two replies: the target (or a backend behind it) restarted,
// so their difference measures nothing.
func restarted(prev, cur client.StatsReply) bool {
	return cur.SubmitsTotal < prev.SubmitsTotal || cur.SubmitErrors < prev.SubmitErrors ||
		cur.EventsSent < prev.EventsSent || cur.EventsSendErrors < prev.EventsSendErrors ||
		queueWait(cur).Count < queueWait(prev).Count
}

// render assembles one full frame from this poll and, after the first
// frame, the previous poll's stats (nil: no interval burn yet).
func render(base string, prev *cluster.StatsReply, p poll, topN int) string {
	st := p.st
	var b strings.Builder
	now := time.Now().Format("15:04:05")

	// Header: where we're looking and the fleet-level load gauges.
	fmt.Fprintf(&b, "episim-top  %s  %s\n", base, now)
	health := ""
	stale := false
	if st.Gateway.BackendsTotal > 0 {
		health = fmt.Sprintf("  backends %d/%d healthy", st.Gateway.BackendsHealthy, st.Gateway.BackendsTotal)
		if st.Gateway.FleetHealthy == 0 {
			health += "  [STALE: fleet unreachable, last-known stats]"
			stale = true
		}
	}
	p99 := queueWait(st.StatsReply).Quantile(0.99) // NaN before any wait
	fmt.Fprintf(&b, "queue %d  active %d  done %d/%d  cells %d (%.0f/s)  q-wait p99 %s%s\n\n",
		st.QueueDepth, st.ActiveSweeps, st.SweepsDone, st.SweepsTotal,
		st.CellsStreamed, st.CellsPerSec, fmtSeconds(p99), health)

	// SLOs: objective, burn over the last poll interval and since start.
	fmt.Fprintf(&b, "%-22s %9s %9s %10s\n", "SLO", "objective", "burn(Δ)", "burn(all)")
	for _, bs := range st.Backends {
		stale = stale || bs.StatsStale
	}
	mark := ""
	if stale {
		mark = "  STALE"
	}
	for _, s := range slos {
		delta := math.NaN()
		if prev != nil && !restarted(prev.StatsReply, st.StatsReply) {
			delta = s.burn(prev.StatsReply, st.StatsReply)
		}
		fmt.Fprintf(&b, "%-22s %9.3f %9s %10s%s\n",
			s.name, s.objective, fmtBurn(delta), fmtBurn(s.burn(client.StatsReply{}, st.StatsReply)), mark)
	}
	b.WriteString("\n")

	// Backends (gateway targets only).
	if len(st.Backends) > 0 {
		b.WriteString("BACKEND          up  queue  routed   cells      err\n")
		for _, bs := range st.Backends {
			up := "ok"
			if !bs.Healthy {
				up = "DOWN"
			}
			cells := int64(0)
			if bs.Stats != nil {
				cells = bs.Stats.CellsStreamed
			}
			note := bs.StatsError
			if bs.StatsStale {
				age := ""
				if bs.StatsUpdated != nil {
					age = fmt.Sprintf(" (%s old)", time.Since(*bs.StatsUpdated).Round(time.Second))
				}
				note = "stale" + age
			}
			fmt.Fprintf(&b, "%-15s %3s %6d %7d %7d  %s\n",
				bs.Name, up, bs.QueueDepth, bs.Routed, cells, note)
		}
		b.WriteString("\n")
	}

	// Top clients by consumed simulation time.
	fmt.Fprintf(&b, "CLIENT                 submits    cells   sim-sec  cache-hit   streamed\n")
	if p.usageErr != nil {
		fmt.Fprintf(&b, "  (unavailable: %v)\n", p.usageErr)
	}
	rows := p.usage.Clients
	if len(rows) > topN {
		rows = rows[:topN]
	}
	for _, u := range rows {
		fmt.Fprintf(&b, "%-22s %7d %8d %9.1f %10d %10s\n",
			u.Client, u.Submissions, u.Cells, u.SimSeconds, u.CacheHits, fmtBytes(u.StreamedBytes))
	}
	if len(p.usage.Clients) > topN {
		fmt.Fprintf(&b, "  ... %d more clients\n", len(p.usage.Clients)-topN)
	}
	return b.String()
}

// fmtBurn renders a burn rate compactly; "-" when there is no interval
// to measure (NaN) — burn 1.0 means spending budget exactly as fast as
// the objective allows.
func fmtBurn(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

func fmtSeconds(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3gs", v)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
