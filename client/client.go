// Package client is the Go client for the episimd sweep service: submit
// declarative SweepSpecs, watch their status, stream per-cell aggregates
// as they finalize (SSE), fetch full results and cancel runs.
//
// The wire types in this package (JobStatus, Event, ...) are the
// service's HTTP contract; episimd's handlers marshal exactly these
// structs, so the two sides cannot drift.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	episim "repro"
	"repro/internal/obs"
)

// TraceHeader is the X-Episim-Trace-Id header: set it on a submission
// to choose the sweep's trace id; gateway and daemon echo it back (and
// generate an id when absent).
const TraceHeader = obs.TraceHeader

// JobState is the lifecycle state of a submitted sweep.
type JobState string

// Sweep job lifecycle: Queued → Running → one of Done / Failed /
// Canceled.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is one sweep job's snapshot.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Error summarizes the failure when State is "failed".
	Error string `json:"error,omitempty"`
	// Cells and Replicates are the sweep's grid shape; CellsDone counts
	// finalized cells (streamed or failed) so far.
	Cells      int `json:"cells"`
	CellsDone  int `json:"cells_done"`
	Replicates int `json:"replicates"`

	Created time.Time `json:"created"`
	// Started and Finished are nil until the job reaches those states
	// (omitempty cannot elide a zero time.Time, a pointer can).
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// TraceID correlates this job across log lines, the trace timeline
	// and proxied hops (the X-Episim-Trace-Id header). It is stamped on
	// the persisted job record, so it survives eviction and restarts.
	TraceID string `json:"trace_id,omitempty"`

	// SpecVersion is the submitted spec's schema version: 1 for the
	// original grid, 2 when it carries an intervention axis (fork-point
	// counterfactual sweeps). Persisted with the job record, so a
	// rehydrated job still reports what it was submitted as. Omitted by
	// daemons predating the field — treat absent as 1.
	SpecVersion int `json:"spec_version,omitempty"`
}

// SubmitReply acknowledges a submission.
type SubmitReply struct {
	ID          string `json:"id"`
	Cells       int    `json:"cells"`
	Simulations int    `json:"simulations"`
	// TraceID is the trace id in effect for this sweep: the one the
	// client supplied via X-Episim-Trace-Id, else server-generated.
	TraceID string `json:"trace_id,omitempty"`
	// SpecVersion echoes the accepted spec's schema version (see
	// JobStatus.SpecVersion); absent from daemons predating the field.
	SpecVersion int `json:"spec_version,omitempty"`
}

// TraceSpan is one named, timed stage of a sweep's execution.
type TraceSpan = obs.Span

// TraceReply is the GET /v1/sweeps/{id}/trace timeline: where the wall
// clock went between submission and completion. Spans are recorded
// in-memory per job; a job rehydrated from disk after a restart keeps
// its TraceID but reports no spans.
type TraceReply struct {
	// ID is the backend-local job id. Deliberately NOT rewritten by the
	// gateway: the gateway relays trace replies verbatim, so the bytes
	// fetched through it are identical to the owning backend's.
	ID      string   `json:"id"`
	TraceID string   `json:"trace_id,omitempty"`
	State   JobState `json:"state"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// WallSeconds is created→finished (or →now while running) — the
	// denominator for span coverage.
	WallSeconds float64 `json:"wall_seconds"`

	Spans []TraceSpan `json:"spans"`
	// SpansDropped counts spans past the per-job retention cap (huge
	// grids); histograms still observed them.
	SpansDropped int `json:"spans_dropped,omitempty"`
}

// Event is one message of a sweep's event stream, delivered over SSE or
// NDJSON. Cell events carry the finalized aggregate; terminal events
// ("done", "error", "canceled") carry the job's final status and end the
// stream.
type Event struct {
	Seq  int                     `json:"seq"`
	Type string                  `json:"type"` // "cell", "done", "error", "canceled"
	Cell *episim.SweepCellResult `json:"cell,omitempty"`
	Job  *JobStatus              `json:"job,omitempty"`
}

// StatsReply is the daemon's /v1/stats snapshot.
type StatsReply struct {
	UptimeSec    float64 `json:"uptime_sec"`
	QueueDepth   int     `json:"queue_depth"`
	ActiveSweeps int     `json:"active_sweeps"`

	SweepsTotal    int `json:"sweeps_total"`
	SweepsDone     int `json:"sweeps_done"`
	SweepsFailed   int `json:"sweeps_failed"`
	SweepsCanceled int `json:"sweeps_canceled"`
	// SweepsEvicted counts finished sweeps dropped from the memory index
	// by the retention cap or TTL; with a cache dir they remain readable
	// from the disk store (SweepsTotal covers the memory index only).
	SweepsEvicted int64 `json:"sweeps_evicted"`

	CellsStreamed int64   `json:"cells_streamed"`
	CellsPerSec   float64 `json:"cells_per_sec"`

	// Request outcomes: submission and event-delivery successes and
	// failures, and span drops past the per-job retention cap. They ride
	// /v1/stats (like the histograms below) so a fronting gateway merges
	// them fleet-wide, and episim-top derives SLO burn rates from two
	// consecutive replies.
	SubmitsTotal      int64 `json:"submits_total"`
	SubmitErrors      int64 `json:"submit_errors"`
	EventsSent        int64 `json:"events_sent"`
	EventsSendErrors  int64 `json:"events_send_errors"`
	TraceDroppedSpans int64 `json:"trace_dropped_spans"`
	// ProfileCaptures is always zero from this build: the profiling
	// watchdog that counted its captures is gone. The field stays because
	// the pinned /v1/stats and /metrics formats name it, and a gateway
	// may merge replies from older daemons that still count.
	ProfileCaptures int64 `json:"profile_captures"`

	// KernelDays counts simulated days by executing kernel ("dense",
	// "active", "event") across all finalized cells; empty until a sweep
	// selects a non-default kernel.
	KernelDays map[string]int64 `json:"kernel_days,omitempty"`

	// Cache stats carry both tiers: Hits/Misses/... are the in-memory
	// LRU, Disk* the persistent artifact tier, and Builds the actual
	// build executions either tier failed to absorb.
	PopulationCache episim.SweepCacheStats `json:"population_cache"`
	PlacementCache  episim.SweepCacheStats `json:"placement_cache"`
	// CheckpointCache covers fork-point sim-state checkpoints (version 2
	// sweeps); Builds counts prefix executions that no tier absorbed.
	CheckpointCache episim.SweepCacheStats `json:"checkpoint_cache"`

	// CheckpointRestores / CheckpointBytes count branch resumes from a
	// checkpoint and the estimated in-memory bytes of every checkpoint
	// built by this daemon — the fork economics in two numbers.
	CheckpointRestores int64 `json:"checkpoint_restores"`
	CheckpointBytes    int64 `json:"checkpoint_bytes"`

	// Store sizes are present only when the daemon runs with -cache-dir.
	PopulationStore *episim.SweepStoreStats `json:"population_store,omitempty"`
	PlacementStore  *episim.SweepStoreStats `json:"placement_store,omitempty"`
	ResultStore     *episim.SweepStoreStats `json:"result_store,omitempty"`
	CheckpointStore *episim.SweepStoreStats `json:"checkpoint_store,omitempty"`

	// Histograms are the daemon's latency distributions (submit, queue
	// wait, placement build, per-replicate sim, result persist). They
	// ride /v1/stats so a fronting gateway can merge backend histograms
	// bucket-wise into fleet-wide distributions on its own /metrics.
	Histograms []obs.HistogramSnapshot `json:"histograms,omitempty"`
}

// UsageReply is the GET /v1/usage per-client accounting ledger, biggest
// sim-seconds consumers first. From a gateway the rows are merged
// across every reachable backend.
type UsageReply struct {
	Instance string            `json:"instance,omitempty"`
	Clients  []obs.ClientUsage `json:"clients"`
}

// HealthReply is the daemon's /healthz readiness snapshot. A fronting
// gateway (episim-gw) probes this endpoint to decide routing; the daemon
// replies 503 with Status "degraded" when it cannot take work (e.g. its
// cache dir stopped being writable).
type HealthReply struct {
	Status string `json:"status"` // "ok" or "degraded"
	// Instance is the daemon's configured name (episimd -name). A
	// fronting gateway (episim-gw) adopts it as the backend's routing
	// identity: job ids embed it and HRW placement hashes it, so a fleet
	// can be reordered or readdressed without breaking either.
	Instance     string  `json:"instance,omitempty"`
	UptimeSec    float64 `json:"uptime_sec"`
	QueueDepth   int     `json:"queue_depth"`
	ActiveSweeps int     `json:"active_sweeps"`
	// MaxActive is the daemon's concurrent-sweep bound; with QueueDepth
	// it tells a load-aware router how saturated this instance is.
	MaxActive int `json:"max_active,omitempty"`
	// CacheDir and CacheDirWritable are present only for durable daemons;
	// Error carries the probe failure when writability is lost.
	CacheDir         string `json:"cache_dir,omitempty"`
	CacheDirWritable *bool  `json:"cache_dir_writable,omitempty"`
	Error            string `json:"error,omitempty"`
}

// ValidateInstanceName checks a daemon instance name against the rules
// both episimd (-name flag) and episim-gw (name discovery) enforce —
// one validator, so the two ends cannot drift: a gateway embeds the
// name in job ids ("<name>-sw-000001"), so "-sw-" would make ids
// ambiguous, and whitespace, commas or slashes break headers, URLs and
// the -backends list syntax. Empty names are valid (anonymous daemon).
func ValidateInstanceName(name string) error {
	if strings.Contains(name, "-sw-") {
		return fmt.Errorf("instance name %q must not contain \"-sw-\" (reserved as the job-id separator)", name)
	}
	// Allowlist, not denylist: the name is embedded raw in request paths
	// (/v1/sweeps/<name>-sw-000001), headers and the -backends flag, so
	// anything beyond hostname-safe characters ('?', '#', '%', ...)
	// would boot a daemon whose job ids cannot be fetched.
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '.' || c == '_' || c == '-' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return fmt.Errorf("instance name %q may only contain letters, digits, '.', '_' and '-'", name)
		}
	}
	if IsPositionalIdentity(name) {
		return fmt.Errorf("instance name %q is reserved (the \"b<number>\" shape is the gateway's positional fallback identity)", name)
	}
	return nil
}

// IsPositionalIdentity reports whether name has the gateway's positional
// identity shape ("b0", "b1", ... — 'b' followed by digits only). The
// whole shape is reserved — not just names matching a backend's current
// slot — because fleets grow and lists reorder: a daemon named "b2"
// would have its ids silently re-resolved by position after any
// reshuffle. ValidateInstanceName refuses it and the gateway's id
// resolver positional-parses exactly it; sharing one predicate keeps
// the two ends from drifting.
func IsPositionalIdentity(name string) bool {
	if len(name) < 2 || name[0] != 'b' {
		return false
	}
	for i := 1; i < len(name); i++ {
		if name[i] < '0' || name[i] > '9' {
			return false
		}
	}
	return true
}

// Client talks to one episimd instance.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8321".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Streams run as long as
	// the sweep does, so it must not set a global Timeout.
	HTTPClient *http.Client
	// ClientID, when set, is sent as the X-Episim-Client header on every
	// request. A gateway (episim-gw) keys per-client admission quotas on
	// it; unset, the gateway falls back to the remote address, which
	// lumps every caller behind one NAT into one quota.
	ClientID string
	// TraceID, when set, is sent as the X-Episim-Trace-Id header on every
	// request: submissions adopt it as their trace id (see Trace), tying
	// the sweep's span timeline and server log lines to the caller's own
	// correlation id. Unset, the server mints one per submission — echoed
	// in SubmitReply.TraceID.
	TraceID string
}

// New builds a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues a request and decodes the JSON reply into out (nil = discard).
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.ClientID != "" {
		req.Header.Set("X-Episim-Client", c.ClientID)
	}
	if c.TraceID != "" {
		req.Header.Set(TraceHeader, c.TraceID)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Typed error sentinels for the failures callers routinely branch on.
// Match with errors.Is — the concrete error keeps the server's full
// message and status:
//
//	if errors.Is(err, client.ErrThrottled) { wait, _ := client.RetryAfter(err); ... }
//	if errors.Is(err, client.ErrNotFound) { ... }
//
// They replace matching on error strings, which drift with server
// wording.
var (
	// ErrThrottled marks an HTTP 429 admission-control rejection.
	ErrThrottled = errors.New("episimd: throttled")
	// ErrNotFound marks an HTTP 404 — an unknown sweep id, or an id whose
	// record aged out of both the memory index and the disk store.
	ErrNotFound = errors.New("episimd: not found")
)

// apiError is a non-2xx reply; it keeps the status code so retry logic
// can distinguish server-side failures (5xx, possibly transient — a
// gateway mid-failover answers 502) from permanent client errors (4xx),
// and the advised Retry-After wait for 429 throttles.
type apiError struct {
	status     int
	msg        string
	retryAfter time.Duration
	body       []byte // the reply's first 4 KiB
}

func (e *apiError) Error() string { return e.msg }

// Is maps the reply's status onto the package sentinels so callers can
// use errors.Is without knowing the concrete type.
func (e *apiError) Is(target error) bool {
	switch target {
	case ErrThrottled:
		return e.status == http.StatusTooManyRequests
	case ErrNotFound:
		return e.status == http.StatusNotFound
	}
	return false
}

// RetryAfter extracts the server-advised wait from a throttled (429)
// submission error, for callers implementing their own backoff instead
// of relying on Submit's built-in honoring. ok is false when err carries
// no retry advice.
func RetryAfter(err error) (wait time.Duration, ok bool) {
	var ae *apiError
	if errors.As(err, &ae) && ae.retryAfter > 0 {
		return ae.retryAfter, true
	}
	return 0, false
}

// decodeError turns a non-2xx reply into an error carrying the server's
// message, status, and (on 429) its Retry-After advice. The gateway also
// emits a millisecond-precision X-Episim-Retry-After-Ms header — the
// standard Retry-After only has whole-second resolution — which is
// preferred when present.
func decodeError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var retryAfter time.Duration
	if ms := resp.Header.Get("X-Episim-Retry-After-Ms"); ms != "" {
		if n, err := strconv.ParseInt(ms, 10, 64); err == nil && n > 0 {
			retryAfter = time.Duration(n) * time.Millisecond
		}
	}
	if retryAfter == 0 {
		if s := resp.Header.Get("Retry-After"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n > 0 {
				retryAfter = time.Duration(n) * time.Second
			}
		}
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return &apiError{resp.StatusCode,
			fmt.Sprintf("episimd: %s (HTTP %d)", e.Error, resp.StatusCode), retryAfter, b}
	}
	return &apiError{resp.StatusCode,
		fmt.Sprintf("episimd: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b))), retryAfter, b}
}

// SubmitOptions overrides the Client's identity fields for one
// submission, without mutating the Client. Zero values inherit the
// Client's.
type SubmitOptions struct {
	// TraceID / ClientID override the Client-level fields for this one
	// submission (X-Episim-Trace-Id / X-Episim-Client headers).
	TraceID  string
	ClientID string
}

// Submit enqueues a sweep and returns its acknowledgment.
//
// Submit honors admission control: when a gateway throttles the request
// (HTTP 429 with Retry-After), it waits the advised interval and retries,
// up to maxThrottleRetries times, so well-behaved callers back off
// exactly as the server asks instead of hammering it. A single honored
// wait is capped at maxThrottleWait — advice beyond that (a drained
// quota with a seconds-per-token rate, a hostile server) surfaces as
// the error immediately rather than silently blocking the caller for
// minutes; use RetryAfter on the returned error to schedule a later
// retry. Cancellation via ctx interrupts the wait; a 429 with no
// Retry-After also surfaces immediately (errors.Is(err, ErrThrottled)
// identifies it).
func (c *Client) Submit(ctx context.Context, spec *episim.SweepSpec) (SubmitReply, error) {
	return c.SubmitWith(ctx, spec, SubmitOptions{})
}

// SubmitWith is Submit with per-submission options; see SubmitOptions.
// It shares Submit's throttle-honoring retry loop.
func (c *Client) SubmitWith(ctx context.Context, spec *episim.SweepSpec, opts SubmitOptions) (SubmitReply, error) {
	const (
		maxThrottleRetries = 4
		maxThrottleWait    = 30 * time.Second
	)
	cc := *c
	if opts.ClientID != "" {
		cc.ClientID = opts.ClientID
	}
	if opts.TraceID != "" {
		cc.TraceID = opts.TraceID
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return SubmitReply{}, err
	}
	for attempt := 0; ; attempt++ {
		var ack SubmitReply
		err := cc.do(ctx, http.MethodPost, "/v1/sweeps", bytes.NewReader(body), &ack)
		if err == nil {
			return ack, nil
		}
		var ae *apiError
		if !errors.As(err, &ae) || ae.status != http.StatusTooManyRequests ||
			ae.retryAfter <= 0 || ae.retryAfter > maxThrottleWait ||
			attempt >= maxThrottleRetries {
			return SubmitReply{}, err
		}
		select {
		case <-time.After(ae.retryAfter):
		case <-ctx.Done():
			return SubmitReply{}, ctx.Err()
		}
	}
}

// Status fetches one job's snapshot.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st)
	return st, err
}

// List fetches every job the daemon knows, oldest first.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var jobs []JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/sweeps", nil, &jobs)
	return jobs, err
}

// Cancel asks the daemon to stop a queued or running sweep.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/sweeps/"+id+"/cancel", nil, nil)
}

// Result fetches a finished sweep's full aggregate (partial when some
// cells failed). The daemon replies 409 while the sweep is still
// queued/running (retry later) and 410 when a canceled or failed run
// produced no aggregate at all (permanent). Results are durable when
// the daemon runs with -cache-dir: they survive memory eviction and
// daemon restarts. Build accounting is not part of the wire result
// (it is execution state; see Stats for cache counters).
func (c *Client) Result(ctx context.Context, id string) (*episim.SweepResult, error) {
	var res episim.SweepResult
	if err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Trace fetches a sweep's span timeline: named, timed stages (queue
// wait, placement build, each replicate's simulation, aggregation,
// result persist) covering the wall clock between submission and
// completion. Available while the sweep runs (partial timeline) and
// after it finishes; a daemon restart keeps the trace id but drops the
// spans (they are in-memory per job).
func (c *Client) Trace(ctx context.Context, id string) (TraceReply, error) {
	var tr TraceReply
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id+"/trace", nil, &tr)
	return tr, err
}

// Stats fetches the daemon's service metrics.
func (c *Client) Stats(ctx context.Context) (StatsReply, error) {
	var st StatsReply
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Usage fetches the per-client usage ledger.
func (c *Client) Usage(ctx context.Context) (UsageReply, error) {
	var u UsageReply
	err := c.do(ctx, http.MethodGet, "/v1/usage", nil, &u)
	return u, err
}

// Health fetches the daemon's readiness snapshot. A degraded daemon
// replies 503 with the same snapshot (Status "degraded", Error the
// cause): Health returns it together with the error, so a caller still
// learns which instance answered and why it cannot take work.
func (c *Client) Health(ctx context.Context) (HealthReply, error) {
	var h HealthReply
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	var ae *apiError
	if errors.As(err, &ae) && ae.status == http.StatusServiceUnavailable {
		_ = json.Unmarshal(ae.body, &h)
	}
	return h, err
}

// transientErr wraps a failure worth retrying with a resumed stream:
// transport errors (dropped connections, resets) and 5xx replies. The
// daemon retains every event, so resuming at last-seen+1 — the
// Last-Event-ID contract — is lossless.
type transientErr struct{ err error }

func (e *transientErr) Error() string { return e.err.Error() }
func (e *transientErr) Unwrap() error { return e.err }

// callbackErr marks an error returned by the caller's fn, which must
// end the stream rather than be retried.
type callbackErr struct{ err error }

func (e *callbackErr) Error() string { return e.err.Error() }
func (e *callbackErr) Unwrap() error { return e.err }

// Stream subscribes to a sweep's event stream from sequence number
// `from` (0 replays everything already finalized, then continues live)
// and invokes fn for every event until a terminal event arrives, fn
// returns an error, or ctx is canceled.
//
// Stream is self-healing: a dropped connection — a slow-subscriber
// disconnect, a proxy cut, a gateway failing over, a 5xx from a backend
// mid-restart — reconnects automatically with backoff and resumes from
// the last seen sequence number (the Last-Event-ID contract; every event
// is retained server-side), so transient disconnects lose no events and
// surface no error. It gives up after repeated attempts with no
// progress; permanent errors (4xx, malformed events, fn failures, ctx
// cancellation) end the stream immediately.
func (c *Client) Stream(ctx context.Context, id string, from int, fn func(Event) error) error {
	const (
		maxErrRetries = 5 // consecutive transient failures without progress
		maxEmptyEnds  = 3 // consecutive clean ends without progress
	)
	errRetries, emptyEnds := 0, 0
	backoff := 250 * time.Millisecond
	for {
		last, terminal, err := c.streamOnce(ctx, id, from, fn)
		if terminal {
			return nil
		}
		if last >= from { // progressed: both give-up counters restart
			from = last + 1
			errRetries, emptyEnds = 0, 0
			backoff = 250 * time.Millisecond
		}
		if err != nil {
			var cb *callbackErr
			if errors.As(err, &cb) {
				return cb.err
			}
			var tr *transientErr
			if ctx.Err() != nil || !errors.As(err, &tr) {
				return err
			}
			errRetries++
			if errRetries >= maxErrRetries {
				return fmt.Errorf("episimd: event stream for %s: giving up after %d attempts: %w",
					id, errRetries, tr.err)
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
			continue
		}
		// Clean end without a terminal event: reconnect immediately (the
		// server replays anything missed); repeated empty ends mean the
		// stream is genuinely going nowhere.
		if last < from {
			emptyEnds++
			if emptyEnds >= maxEmptyEnds {
				return fmt.Errorf("episimd: event stream for %s ended early", id)
			}
		}
	}
}

// streamOnce runs a single stream connection, reporting the last
// sequence number delivered to fn (from-1 when none) and whether a
// terminal event ended the stream. A connection that ends without a
// terminal event (slow-subscriber drop, proxy cut) returns a nil error
// so Stream can resume.
func (c *Client) streamOnce(ctx context.Context, id string, from int, fn func(Event) error) (last int, terminal bool, err error) {
	last = from - 1
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/sweeps/"+id+"/events?from="+strconv.Itoa(from), nil)
	if err != nil {
		return last, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if c.ClientID != "" {
		req.Header.Set("X-Episim-Client", c.ClientID)
	}
	if from > 0 {
		// Redundant with ?from= (which the server prefers) but keeps
		// SSE-aware intermediaries informed of the resume point.
		req.Header.Set("Last-Event-ID", strconv.Itoa(from-1))
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return last, false, &transientErr{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		err := decodeError(resp)
		if resp.StatusCode >= 500 {
			return last, false, &transientErr{err}
		}
		return last, false, err
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var data strings.Builder
	dispatch := func() (bool, error) {
		if data.Len() == 0 {
			return false, nil
		}
		var ev Event
		if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
			return false, fmt.Errorf("episimd: bad stream event: %w", err)
		}
		data.Reset()
		if err := fn(ev); err != nil {
			return false, &callbackErr{err}
		}
		last = ev.Seq
		return ev.Type != "cell", nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			terminal, err := dispatch()
			if err != nil || terminal {
				return last, terminal, err
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
			// id: and event: lines are redundant with the payload's Seq/Type.
		}
	}
	if err := sc.Err(); err != nil {
		// Mid-stream transport failure (reset, cut proxy): resumable.
		return last, false, &transientErr{err}
	}
	return last, false, nil // ended without a terminal event: resumable
}
