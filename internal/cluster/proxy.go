package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// controlTimeout bounds non-streaming proxied calls (submit, status,
// cancel, trace) and the list fan-out. Event and result streams get no
// deadline.
const controlTimeout = 15 * time.Second

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// backendHeader stamps which backend served a proxied request —
// operational visibility (and what the routing smoke tests assert on).
const backendHeader = "X-Episim-Backend"

// forward issues one relayed request to a backend — the path for every
// call whose bytes pass through to the client; the gateway's own typed
// calls go through the backend's client.Client. It copies select headers
// (the trace id among them, so a submission's trace follows it to the
// owning daemon). The round-trip — request out to response headers in —
// feeds the per-backend proxy latency histogram.
func (g *Gateway) forward(ctx context.Context, b *backend, method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, rd)
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"Content-Type", "Accept", "Last-Event-ID", obs.TraceHeader, "X-Episim-Client"} {
		if v := hdr.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	start := time.Now()
	resp, err := g.httpc.Do(req)
	if err == nil {
		g.proxyHist.With(b.identity()).ObserveSince(start)
	}
	return resp, err
}

// relay copies a backend reply through verbatim.
func relay(w http.ResponseWriter, resp *http.Response, b *backend) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set(backendHeader, b.identity())
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// pickOrder decides the submission's attempt order. It starts from the
// HRW preference order for the key (healthy backends first) and, when
// load-aware spill is enabled, diverts off a saturated owner: if the
// owner's estimated queue depth exceeds the spill bound, the first
// healthy backend in HRW order whose queue is within the bound moves to
// the front — one cold placement build bought for bounded queueing
// delay. When every healthy backend is past the bound the owner keeps
// the job: if the whole fleet is saturated, cache affinity is the only
// lever left. The returned affine backend is the cache-affine HRW owner
// (order[0] unless a spill reordered it away); the spilled flag marks a
// diverted first choice.
func (g *Gateway) pickOrder(key string) (order []*backend, affine *backend, spilled bool) {
	order = g.rankFor(key)
	affine = order[0]
	if g.spillDepth <= 0 {
		return order, affine, false
	}
	var healthy []*backend
	for _, b := range order {
		if b.healthy.Load() {
			healthy = append(healthy, b)
		}
	}
	if len(healthy) < 2 || healthy[0].queueDepthEstimate() <= g.spillDepth {
		return order, affine, false
	}
	for _, c := range healthy[1:] {
		if c.queueDepthEstimate() <= g.spillDepth {
			reordered := make([]*backend, 0, len(order))
			reordered = append(reordered, c)
			for _, b := range order {
				if b != c {
					reordered = append(reordered, b)
				}
			}
			return reordered, affine, true
		}
	}
	return order, affine, false
}

// handleSubmit is the admission + routing decision: throttle the client,
// parse the spec (rejecting bad submissions at the edge), reduce it to
// its dominant placement content key, and walk the load-aware attempt
// order until a backend takes the job. The original body bytes are
// forwarded, so the backend parses exactly what the client sent.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission first — it needs only headers and the remote address, so
	// a throttled client is refused before the gateway spends a body
	// read (up to 32MB) or a spec parse on it.
	var cKey string
	if g.admit.enabled() {
		cKey = server.ClientID(r)
		if wait, ok := g.admit.takeToken(cKey); !ok {
			g.throttledRate.Add(1)
			writeThrottled(w, cKey, "submission-rate", wait)
			return
		}
		if !g.admit.tryReserve(cKey) {
			// At the in-flight cap: reconcile the ledger against the
			// owning backends before rejecting — finished jobs the
			// gateway never happened to observe must not count.
			g.verifyInflight(r.Context(), cKey)
			if !g.admit.tryReserve(cKey) {
				// Nothing was enqueued: give the rate token back, or
				// cap rejections would drain the bucket and resurface
				// as rate 429s once a slot finally frees.
				g.admit.refundToken(cKey)
				g.throttledInflight.Add(1)
				writeThrottled(w, cKey, "in-flight", time.Second)
				return
			}
		}
		defer func() {
			if cKey != "" { // still reserved: no backend accepted
				g.admit.release(cKey)
			}
		}()
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	spec, err := episim.ParseSweepSpec(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Normalize the trace id at the edge: adopt the client's (sanitized —
	// it travels in headers and log lines) or mint one, stamp it on the
	// forwarded request so the owning daemon adopts the same id, and echo
	// it so the caller can correlate even a failed routing attempt.
	traceID := obs.SanitizeTraceID(r.Header.Get(obs.TraceHeader))
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	r.Header.Set(obs.TraceHeader, traceID)
	w.Header().Set(obs.TraceHeader, traceID)
	// Stamp the client identity the gateway resolved (header, else remote
	// host) so the owning daemon's usage ledger bills the real tenant,
	// not the gateway's own address.
	r.Header.Set("X-Episim-Client", server.ClientID(r))

	key := DominantPlacementKey(spec)
	order, affine, spillFirst := g.pickOrder(key)

	var lastErr error
	// attempt posts to one backend under its own timeout budget (a hung
	// first choice must not eat the fallbacks' time). It reports done
	// when a response was relayed to the client and retryable when the
	// next backend in the attempt order may safely be tried.
	attempt := func(b *backend, first bool) (done, retryable bool) {
		ctx, cancel := context.WithTimeout(r.Context(), controlTimeout)
		defer cancel()
		resp, err := g.forward(ctx, b, http.MethodPost, "/v1/sweeps", body, r.Header)
		if err != nil {
			g.reportFailure(r.Context(), b, err)
			lastErr = err
			// Only retry elsewhere when the request provably never
			// reached the backend (dial-phase failure). A connection
			// that broke — or timed out — mid-request may have delivered
			// the submission; re-posting it would run the sweep twice,
			// so surface the error instead (the ejection above already
			// re-routes the NEXT submission).
			return false, isDialError(err) && r.Context().Err() == nil
		}
		if resp.StatusCode >= 500 {
			// The backend answered but refused: alive (no ejection), and
			// nothing was enqueued, so the next backend is safe to try.
			lastErr = fmt.Errorf("backend %s: HTTP %d", b.identity(), resp.StatusCode)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return false, true
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			relay(w, resp, b) // e.g. a 4xx the backend knows better about
			return true, false
		}
		var ack client.SubmitReply
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			writeError(w, http.StatusBadGateway, "backend %s: bad submit reply: %v", b.identity(), err)
			return true, false
		}
		ack.ID = g.gatewayID(b.identity(), ack.ID, false)
		b.routed.Add(1)
		b.noteRouted()
		g.submitted.Add(1)
		switch {
		case first && spillFirst:
			g.spilled.Add(1) // deliberately diverted off a saturated owner
		case b != affine:
			g.rerouted.Add(1) // accepted, but not by the cache-affine owner
			// (a spill target that refused and fell BACK to the affine
			// owner lands in neither counter: the job went exactly where
			// cache locality wanted it.)
		}
		if cKey != "" {
			g.admit.commit(cKey, ack.ID)
			cKey = "" // reservation consumed; the deferred release must not fire
		}
		g.log.Debug("sweep routed", "job", ack.ID, "trace", traceID,
			"backend", b.identity(), "spilled", first && spillFirst)
		w.Header().Set(backendHeader, b.identity())
		writeJSON(w, http.StatusAccepted, ack)
		return true, false
	}
	for i, b := range order {
		done, retryable := attempt(b, i == 0)
		if done {
			return
		}
		if !retryable {
			break
		}
	}
	writeError(w, http.StatusBadGateway, "no backend accepted the sweep: %v", lastErr)
}

// isDialError reports whether a request failed before it could reach the
// backend at all — connection establishment — which is the only phase
// where retrying a POST elsewhere cannot duplicate work.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// proxyStatus forwards a status fetch and re-issues the job id in
// gateway form.
func (g *Gateway) proxyStatus(w http.ResponseWriter, r *http.Request, b *backend, prefix, local string) {
	g.proxyJobJSON(w, r, b, prefix, http.MethodGet, "/v1/sweeps/"+local)
}

// proxyCancel forwards a cancel; the reply is a job status too.
func (g *Gateway) proxyCancel(w http.ResponseWriter, r *http.Request, b *backend, prefix, local string) {
	g.proxyJobJSON(w, r, b, prefix, http.MethodPost, "/v1/sweeps/"+local+"/cancel")
}

// proxyJobJSON forwards a request whose 2xx reply is one JobStatus,
// rebuilding its id under the prefix the client presented (NOT the
// backend's current identity — a job submitted under a positional
// fallback id must keep answering to it after name discovery).
func (g *Gateway) proxyJobJSON(w http.ResponseWriter, r *http.Request, b *backend, prefix, method, path string) {
	ctx, cancel := context.WithTimeout(r.Context(), controlTimeout)
	defer cancel()
	resp, err := g.forward(ctx, b, method, path, nil, r.Header)
	if err != nil {
		g.reportFailure(r.Context(), b, err)
		writeError(w, http.StatusBadGateway, "backend %s: %v", b.identity(), err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		relay(w, resp, b)
		return
	}
	var st client.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		writeError(w, http.StatusBadGateway, "backend %s: bad status reply: %v", b.identity(), err)
		return
	}
	st.ID = g.gatewayID(prefix, st.ID, st.State.Terminal())
	w.Header().Set(backendHeader, b.identity())
	writeJSON(w, resp.StatusCode, st)
}

// proxyResult streams the result bytes through untouched: the result
// JSON carries no job id, so what the client reads through the gateway
// is byte-identical to reading the backend directly — the durability
// guarantee (canonical bytes across restarts) extends through the
// routing tier. A 200 proves the sweep finished, which also settles the
// admission ledger.
func (g *Gateway) proxyResult(w http.ResponseWriter, r *http.Request, b *backend, prefix, local string) {
	resp, err := g.forward(r.Context(), b, http.MethodGet, "/v1/sweeps/"+local+"/result", nil, r.Header)
	if err != nil {
		g.reportFailure(r.Context(), b, err)
		writeError(w, http.StatusBadGateway, "backend %s: %v", b.identity(), err)
		return
	}
	defer resp.Body.Close()
	g.gatewayID(prefix, local, resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusGone)
	relay(w, resp, b)
}

// proxyTrace streams the span timeline through untouched. The trace
// reply's embedded id is deliberately the backend-local one (the
// daemon's handler documents this), so the gateway need not re-encode —
// a trace read through the gateway is byte-identical to reading the
// owning backend directly, which the cluster tests assert.
func (g *Gateway) proxyTrace(w http.ResponseWriter, r *http.Request, b *backend, prefix, local string) {
	ctx, cancel := context.WithTimeout(r.Context(), controlTimeout)
	defer cancel()
	resp, err := g.forward(ctx, b, http.MethodGet, "/v1/sweeps/"+local+"/trace", nil, r.Header)
	if err != nil {
		g.reportFailure(r.Context(), b, err)
		writeError(w, http.StatusBadGateway, "backend %s: %v", b.identity(), err)
		return
	}
	defer resp.Body.Close()
	relay(w, resp, b)
}

// handleList merges every live backend's job list, re-issued under
// gateway ids, ordered by creation time (then id) — the same oldest-
// first contract a single daemon serves. A backend that is ejected or
// fails to answer is named in X-Episim-Partial.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), controlTimeout)
	defer cancel()
	parts := make([][]client.JobStatus, len(g.backends))
	listed := make([]bool, len(g.backends))
	g.each(func(i int, b *backend) {
		if !b.healthy.Load() {
			return
		}
		jobs, err := b.c.List(ctx)
		if err != nil {
			g.reportFailure(r.Context(), b, err)
			return
		}
		prefix := b.identity()
		for j := range jobs {
			jobs[j].ID = g.gatewayID(prefix, jobs[j].ID, jobs[j].State.Terminal())
		}
		parts[i], listed[i] = jobs, true
	})
	merged := []client.JobStatus{}
	var missing []string
	for i, jobs := range parts {
		merged = append(merged, jobs...)
		if !listed[i] {
			missing = append(missing, g.backends[i].identity())
		}
	}
	sort.Slice(merged, func(a, b int) bool {
		if !merged[a].Created.Equal(merged[b].Created) {
			return merged[a].Created.Before(merged[b].Created)
		}
		return merged[a].ID < merged[b].ID
	})
	if len(missing) > 0 {
		// The body stays the plain array the client contract expects; the
		// header flags that these backends' jobs are absent, not gone.
		w.Header().Set("X-Episim-Partial", strings.Join(missing, ","))
	}
	writeJSON(w, http.StatusOK, merged)
}

// proxyEvents streams a sweep's SSE/NDJSON events through the gateway,
// preserving the replay contract: ?from= and Last-Event-ID pass through,
// sequence numbers are the backend's own, and cell payloads are relayed
// byte-for-byte. Only terminal events (which embed the job's status,
// including its id) are re-encoded so the id a subscriber sees is the
// one the gateway issued.
func (g *Gateway) proxyEvents(w http.ResponseWriter, r *http.Request, b *backend, prefix, local string) {
	path := "/v1/sweeps/" + local + "/events"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	// Same identity stamp as submissions: streamed bytes bill to the
	// subscribing tenant on the owning daemon's ledger.
	r.Header.Set("X-Episim-Client", server.ClientID(r))
	resp, err := g.forward(r.Context(), b, http.MethodGet, path, nil, r.Header)
	if err != nil {
		g.reportFailure(r.Context(), b, err)
		writeError(w, http.StatusBadGateway, "backend %s: %v", b.identity(), err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		relay(w, resp, b)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ct := resp.Header.Get("Content-Type")
	ndjson := strings.Contains(ct, "ndjson")
	if ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if !ndjson {
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
	}
	w.Header().Set(backendHeader, b.identity())
	w.WriteHeader(http.StatusOK)

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case ndjson && len(line) > 0:
			line = g.rewriteEventLine(line, prefix)
		case !ndjson && bytes.HasPrefix(line, []byte("data:")):
			payload := bytes.TrimPrefix(bytes.TrimPrefix(line, []byte("data:")), []byte(" "))
			// Reframing an unchanged payload reproduces the backend's
			// exact "data: <json>" line, so this is byte-transparent for
			// cell events.
			line = append([]byte("data: "), g.rewriteEventLine(payload, prefix)...)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return // subscriber gone; it reconnects and replays
		}
		// Flush on frame boundaries: every line for NDJSON, blank
		// separator lines for SSE (so one event = one flush).
		if ndjson || len(line) == 0 {
			flusher.Flush()
		}
	}
}

// rewriteEventLine re-issues the job id inside a terminal event's
// payload under the client-presented prefix, and settles the admission
// ledger (a terminal event proves the job finished). Cell events — the
// hot path and the bulk of the bytes — carry no job and pass through
// untouched (returned slice is the input).
func (g *Gateway) rewriteEventLine(line []byte, prefix string) []byte {
	if !bytes.Contains(line, []byte(`"job"`)) {
		return line
	}
	var ev client.Event
	if json.Unmarshal(line, &ev) != nil || ev.Job == nil {
		return line
	}
	ev.Job.ID = g.gatewayID(prefix, ev.Job.ID, true)
	out, err := json.Marshal(ev)
	if err != nil {
		return line
	}
	return out
}
