package cluster

import (
	"context"
	"errors"
	"net/url"
	"time"
)

// probeAll probes every backend concurrently and waits for the round to
// finish. New() calls it synchronously so names and initial health are
// known before the gateway serves; probeLoop repeats it on a ticker.
func (g *Gateway) probeAll() {
	g.each(func(_ int, b *backend) { g.probe(b) })
}

// probeLoop polls every backend's /healthz until the gateway closes.
// (The first round already ran synchronously in New.)
func (g *Gateway) probeLoop() {
	defer close(g.done)
	t := time.NewTicker(g.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-g.stop:
			return
		}
		g.probeAll()
	}
}

// probe checks one backend. Any /healthz reply teaches the gateway the
// backend's name — even a 503 "degraded" reply names its sender, so ids
// issued to it keep resolving. A 2xx reply is healthy: one success
// re-admits an ejected backend instantly, while ejection waits for
// failAfter consecutive failures so a single slow probe doesn't shed a
// healthy backend's cache-affine keys.
//
// On boot (before the first successful probe) a backend is unhealthy:
// the synchronous first round in New() decides real initial health
// before the gateway serves, so there is no optimistic window in which
// submissions are routed blind.
func (g *Gateway) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), g.probeTimeout)
	h, err := b.c.Health(ctx)
	cancel()
	g.registerName(b, h.Instance)
	label := b.identity()
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	if err == nil {
		b.consecFails = 0
		b.lastErr = ""
		b.probedDepth = h.QueueDepth
		b.sinceProbe = 0
		b.unhealthySince = time.Time{}
		if !b.healthy.Swap(true) {
			g.log.Info("backend healthy", "backend", label, "url", b.url)
		}
		return
	}
	b.consecFails++
	b.lastErr = err.Error()
	if b.consecFails >= g.failAfter && b.healthy.Swap(false) {
		b.unhealthySince = time.Now()
		g.log.Warn("backend ejected", "backend", label, "url", b.url, "err", err)
	}
}

// queueDepthEstimate is the gateway's current view of the backend's
// queue: the last probed depth plus submissions this gateway routed
// there since — so a burst between probes is visible to the spill
// decision immediately, not one probe interval late.
func (b *backend) queueDepthEstimate() int {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	return b.probedDepth + b.sinceProbe
}

// noteRouted records an accepted submission in the depth estimate; the
// next successful probe replaces the estimate with ground truth.
func (b *backend) noteRouted() {
	b.probeMu.Lock()
	b.sinceProbe++
	b.probeMu.Unlock()
}

// markFailed records a proxy-time transport failure: the backend is
// ejected immediately (submissions must not keep timing out against a
// dead instance while the prober counts to failAfter); the prober
// re-admits it on its next successful probe.
func (g *Gateway) markFailed(b *backend, err error) {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	b.consecFails = g.failAfter
	b.lastErr = err.Error()
	if b.healthy.Swap(false) {
		b.unhealthySince = time.Now()
		g.log.Warn("backend ejected on proxy failure", "url", b.url, "err", err)
	}
}

// unreachableFor reports how long the backend has been ejected (0 while
// healthy or never ejected).
func (b *backend) unreachableFor() time.Duration {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	if b.unhealthySince.IsZero() {
		return 0
	}
	return time.Since(b.unhealthySince)
}

// reportFailure is markFailed behind a blame check: callerCtx is the
// CLIENT's request context, and a proxied request that failed because
// the caller went away (or the caller's own deadline lapsed) says
// nothing about backend health — ejecting on it would let one impatient
// client shed a healthy backend's cache-affine keys. An error reply
// proves the backend alive and ejects nothing either. A transport
// failure with the caller still waiting — including the gateway's own
// per-attempt timeout firing against a hung backend — is the backend's
// fault and ejects it.
func (g *Gateway) reportFailure(callerCtx context.Context, b *backend, err error) {
	if callerCtx.Err() != nil || !unreachable(err) {
		return
	}
	g.markFailed(b, err)
}

// unreachable reports whether err is a failed exchange — no HTTP reply
// at all (dial, reset, timeout) — rather than a reply with an error
// status.
func unreachable(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue)
}

// lastError snapshots the backend's most recent probe/proxy failure.
func (b *backend) lastError() string {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	return b.lastErr
}
