package cluster

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/client"
)

// Admission control: the gateway is the fleet's one front door, so it is
// the one place a misbehaving client can be stopped before its burst
// reaches any backend queue. Two independent per-client limits apply to
// POST /v1/sweeps:
//
//   - a token bucket (SubmitRate sweeps/s sustained, SubmitBurst burst)
//     bounds how fast a client may submit;
//   - an in-flight cap (MaxInflightPerClient) bounds how many of its
//     sweeps may be unfinished across the fleet at once.
//
// Clients are keyed by server.ClientID, the rule daemons account usage
// by: the X-Episim-Client header when present (one logical tenant may fan
// out over many hosts), else the remote host.
// Rejections are HTTP 429 with Retry-After (and a millisecond-precision
// X-Episim-Retry-After-Ms), which repro/client honors automatically.
//
// The in-flight ledger is optimistic: the gateway records ids it issues
// and erases them whenever a proxied status, result, cancel, list entry
// or terminal stream event shows the job finished. Only when a client is
// AT its cap does the gateway verify the ledger against the owning
// backends (lazy verification), so the steady-state submit path costs no
// extra RPCs.

// admission holds the per-client buckets and in-flight ledgers.
type admission struct {
	rate        float64 // tokens/sec; 0 = unlimited
	burst       float64
	maxInflight int // 0 = unlimited

	mu      sync.Mutex
	clients map[string]*clientEntry
	jobs    map[string]string // gateway job id -> client key
}

type clientEntry struct {
	tokens   float64
	lastFill time.Time
	// inflight maps gateway job ids awaiting a terminal state to when
	// they were admitted; the timestamp drives TTL reclamation for
	// clients that submit and never poll (see sweepLocked).
	inflight map[string]time.Time
	reserved int // submissions admitted but not yet acked
	// lastVerify rate-limits lazy ledger verification: a hot-looping
	// at-cap client must not amplify every cheap POST into a fan of
	// backend status RPCs.
	lastVerify time.Time
}

func newAdmission(rate float64, burst, maxInflight int) *admission {
	b := float64(burst)
	if b <= 0 {
		b = math.Max(1, 2*rate)
	}
	return &admission{
		rate:        rate,
		burst:       b,
		maxInflight: maxInflight,
		clients:     map[string]*clientEntry{},
		jobs:        map[string]string{},
	}
}

// enabled reports whether any limit is configured; when none is, the
// submit path skips admission entirely.
func (a *admission) enabled() bool { return a.rate > 0 || a.maxInflight > 0 }

func (a *admission) entry(key string) *clientEntry {
	e, ok := a.clients[key]
	if !ok {
		// Sweep BEFORE inserting: the new entry is idle by construction
		// (full bucket, nothing in flight) and sweeping after would
		// delete it, leaving callers mutating an orphaned struct whose
		// token debits the next request never sees.
		a.sweepLocked()
		e = &clientEntry{tokens: a.burst, lastFill: time.Now(),
			inflight: map[string]time.Time{}}
		a.clients[key] = e
	}
	return e
}

// takeToken spends one submission token, reporting how long the client
// should wait when the bucket is empty.
func (a *admission) takeToken(key string) (wait time.Duration, ok bool) {
	if a.rate <= 0 {
		return 0, true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.entry(key)
	now := time.Now()
	// The refill product is rounded (an explicit float64) before its sum,
	// here and in sweep, so that no target fuses a multiply-add into it.
	e.tokens = math.Min(a.burst, e.tokens+float64(now.Sub(e.lastFill).Seconds()*a.rate))
	e.lastFill = now
	if e.tokens >= 1 {
		e.tokens--
		return 0, true
	}
	return time.Duration((1 - e.tokens) / a.rate * float64(time.Second)), false
}

// refundToken returns a token spent on a request that was rejected
// downstream (e.g. by the in-flight cap): the client enqueued nothing,
// so burning rate budget on the rejection would let the cap starve the
// bucket and convert in-flight 429s into later rate 429s.
func (a *admission) refundToken(key string) {
	if a.rate <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if e, ok := a.clients[key]; ok {
		e.tokens = math.Min(a.burst, e.tokens+1)
	}
}

// tryReserve claims an in-flight slot; release returns it (submission
// rejected by every backend), commit converts it into a tracked id.
func (a *admission) tryReserve(key string) bool {
	if a.maxInflight <= 0 {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.entry(key)
	if len(e.inflight)+e.reserved >= a.maxInflight {
		return false
	}
	e.reserved++
	return true
}

func (a *admission) release(key string) {
	if a.maxInflight <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if e, ok := a.clients[key]; ok && e.reserved > 0 {
		e.reserved--
	}
}

func (a *admission) commit(key, id string) {
	if a.maxInflight <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.entry(key)
	if e.reserved > 0 {
		e.reserved--
	}
	e.inflight[id] = time.Now()
	a.jobs[id] = key
}

// observeTerminal erases a job from its client's in-flight ledger. The
// proxy paths call it whenever a backend reply proves the job finished.
func (a *admission) observeTerminal(id string) {
	if a.maxInflight <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	key, ok := a.jobs[id]
	if !ok {
		return
	}
	delete(a.jobs, id)
	if e, ok := a.clients[key]; ok {
		delete(e.inflight, id)
	}
}

// inflightIDs snapshots a client's tracked job ids for verification —
// unless the client was verified within the cooldown, in which case it
// returns nil so a hot-looping rejected client costs no backend RPCs.
func (a *admission) inflightIDs(key string) []string {
	const verifyCooldown = 500 * time.Millisecond
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.clients[key]
	if !ok {
		return nil
	}
	now := time.Now()
	if now.Sub(e.lastVerify) < verifyCooldown {
		return nil
	}
	e.lastVerify = now
	ids := make([]string, 0, len(e.inflight))
	for id := range e.inflight {
		ids = append(ids, id)
	}
	return ids
}

// trackedClients counts clients with live state (stats visibility).
func (a *admission) trackedClients() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.clients)
}

// sweepLocked bounds the clients and jobs maps: once the client map
// grows past a threshold, in-flight entries older than a generous TTL
// are expired (a client that submitted and never polled again would
// otherwise pin its entry forever — the gateway only observes terminal
// states through proxied replies or at-cap verification), then idle
// entries (no in-flight jobs, bucket refilled to full) are dropped.
// Expiry fails open: a freed slot re-admits the client early, which is
// the right bias for a quota.
//
// The sweep is amortized: each call scans a bounded sample (Go map
// iteration starts at a pseudo-random position, so repeated calls cover
// the whole map over time). X-Episim-Client is client-chosen, so an
// abuser minting a fresh key per request drives one sweep per insert —
// a full-map scan there would let the anti-abuse layer itself serialize
// every tenant behind a.mu. Called with a.mu held, on entry creation
// only, so the steady state costs nothing.
func (a *admission) sweepLocked() {
	const (
		maxIdleClients = 16384
		sweepSample    = 128           // entries examined per insert; reclaims ≥1 per adversarial insert
		inflightTTL    = 6 * time.Hour // far past any sane sweep duration
	)
	if len(a.clients) < maxIdleClients {
		return
	}
	now := time.Now()
	scanned := 0
	for k, e := range a.clients {
		if scanned++; scanned > sweepSample {
			return
		}
		for id, added := range e.inflight {
			if now.Sub(added) > inflightTTL {
				delete(e.inflight, id)
				delete(a.jobs, id)
			}
		}
		idle := len(e.inflight) == 0 && e.reserved == 0 &&
			(a.rate <= 0 || math.Min(a.burst, e.tokens+float64(now.Sub(e.lastFill).Seconds()*a.rate)) >= a.burst)
		if idle {
			delete(a.clients, k)
		}
	}
}

// verifyInflight reconciles a client's ledger against the owning
// backends: jobs whose status is terminal — or that the backend no
// longer knows, or whose backend has been unreachable long past any
// probe blip (the job can never finish, so holding it against the
// client forever would wedge them; a brief ejection forgives nothing,
// or every network flap would let at-cap clients double their quota
// while their sweeps kept running) — are erased. Called only when a
// client is at its cap, at most once per cooldown (see inflightIDs),
// bounded in jobs checked and in total wall time so one at-cap client
// can neither stall its own submit for minutes nor amplify a cheap
// POST into an unbounded fan of RPCs.
func (g *Gateway) verifyInflight(ctx context.Context, key string) {
	const (
		maxVerifyJobs    = 32
		verifyDeadline   = 3 * time.Second // for the whole pass, not per job
		forgiveDownAfter = time.Minute     // owner must be gone this long before its jobs are
	)
	ids := g.admit.inflightIDs(key)
	if len(ids) == 0 {
		return
	}
	if len(ids) > maxVerifyJobs {
		ids = ids[:maxVerifyJobs]
	}
	ctx, cancel := context.WithTimeout(ctx, verifyDeadline)
	defer cancel()
	for _, id := range ids {
		if ctx.Err() != nil {
			return
		}
		b, local, ok := g.resolveID(id)
		if !ok {
			g.admit.observeTerminal(id)
			continue
		}
		st, err := b.c.Status(ctx, local)
		switch {
		case err == nil && st.State.Terminal(), errors.Is(err, client.ErrNotFound):
			g.admit.observeTerminal(id)
		case unreachable(err) && !b.healthy.Load() && b.unreachableFor() > forgiveDownAfter:
			g.admit.observeTerminal(id) // owner long gone: job unreachable, don't count it
		}
	}
}

// writeThrottled answers a rejected submission: 429, the standard
// whole-second Retry-After, and a millisecond-precision variant for
// clients (like repro/client) that can honor sub-second waits.
func writeThrottled(w http.ResponseWriter, key, reason string, wait time.Duration) {
	if wait <= 0 {
		wait = time.Second
	}
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	ms := wait.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("X-Episim-Retry-After-Ms", strconv.FormatInt(ms, 10))
	writeError(w, http.StatusTooManyRequests,
		"client %q over %s limit; retry in %v", key, reason, wait.Round(time.Millisecond))
}
