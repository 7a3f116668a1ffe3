// Package server implements episimd: a long-running HTTP service that
// accepts SweepSpec submissions, runs them on a shared bounded worker
// pool with a process-lifetime placement cache, and streams per-cell
// aggregates the moment each cell finalizes.
//
// The package splits four concerns across four files: the job store
// (this file) owns lifecycle state; the hub (hub.go) owns event fan-out
// with replay; the scheduler (scheduler.go) owns the queue, the runner
// pool and the sweep execution; the HTTP layer (server.go) owns the
// wire. The wire types live in repro/client so daemon and client cannot
// drift.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/artifact"
	"repro/internal/obs"
)

// job is one submitted sweep and its full lifecycle state. All fields
// after the immutable header are guarded by the owning store's mutex.
type job struct {
	id  string
	hub *hub

	// spec is nil for jobs rehydrated from disk after a restart or
	// eviction (only their status and result survive; they are terminal,
	// so nothing needs the spec anymore). specVersion outlives the spec:
	// it rides the persisted status, so rehydrated jobs still report
	// what schema they were submitted as.
	spec        *episim.SweepSpec
	specVersion int
	replicates  int

	state     client.JobState
	errMsg    string
	cells     int
	cellsDone int
	created   time.Time
	started   time.Time
	finished  time.Time
	// traceID correlates the job across log lines, headers and the trace
	// endpoint; trace is its span timeline (nil for rehydrated jobs —
	// spans are in-memory only, the id survives via the job record).
	traceID string
	trace   *obs.Timeline
	// clientID attributes this job's cells, sim time and cache hits to
	// the submitting client in the usage ledger ("" for rehydrated jobs).
	clientID string
	// resultJSON is the result's canonical serialization, materialized
	// once at finish: it is what GET /result serves and what spills to
	// disk, so the bytes a client sees are identical before and after a
	// daemon restart.
	resultJSON []byte
	// archived marks a job whose payload lives (only) in the disk store.
	archived  bool
	hasResult bool
	// cancel aborts the run's context once the job is running; for
	// queued jobs cancellation happens by state alone.
	cancel context.CancelFunc
}

// A persisted job is framed as one line of status JSON followed by the
// result's canonical bytes, verbatim (not nested in JSON — marshalling
// a RawMessage would compact it, and GET /result must serve the exact
// bytes across restarts). The artifact envelope checksums the whole
// record.
func encodeJobRecord(st client.JobStatus, result []byte) ([]byte, error) {
	head, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	return append(append(head, '\n'), result...), nil
}

func decodeJobRecord(payload []byte) (st client.JobStatus, result []byte, err error) {
	idx := bytes.IndexByte(payload, '\n')
	if idx < 0 {
		idx = len(payload)
	}
	if err := json.Unmarshal(payload[:idx], &st); err != nil {
		return st, nil, err
	}
	if idx < len(payload) {
		result = payload[idx+1:]
	}
	return st, result, nil
}

// store is the job registry: an in-memory index with an optional disk
// tier. Finished sweeps spill to the artifact store write-through; the
// memory index is bounded by a retention cap and TTL, and lookups that
// miss memory rehydrate from disk — so GET /result survives both
// eviction and a full daemon restart, while the daemon's footprint
// stays flat no matter how many sweeps it has served.
type store struct {
	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	seq   int
	now   func() time.Time

	// results is the disk tier (nil = memory-only, the pre-persistence
	// behavior). retain caps terminal jobs in the memory index
	// (0 = unbounded); ttl evicts terminal jobs by age (0 = never).
	results *artifact.Store
	retain  int
	ttl     time.Duration
	evicted int64

	// log is the owning server's logger (set after construction; a
	// default keeps bare newStore() tests working).
	log *obs.Logger

	// usage is the owning server's per-client ledger (nil-safe; bare
	// newStore() tests run without one). The store attributes what only
	// it sees: finalized cells, cache hits counted at finish.
	usage *obs.UsageLedger
	// droppedSpans totals spans dropped past the per-job trace cap,
	// accumulated once per job at its terminal transition — the
	// episimd_trace_dropped_spans_total counter.
	droppedSpans atomic.Int64
}

func newStore() *store {
	return &store{jobs: map[string]*job{}, now: time.Now, log: defaultLogger()}
}

// newDurableStore builds a store spilling finished jobs to disk, then
// restores the index from whatever a previous process left there:
// statuses (not payloads) of the most recent `retain` finished sweeps
// re-enter the memory index, and the id sequence continues past every
// persisted job so restarted daemons never reuse an id.
func newDurableStore(results *artifact.Store, retain int, ttl time.Duration) *store {
	s := newStore()
	s.results = results
	s.retain = retain
	s.ttl = ttl
	s.restore()
	return s
}

// jobSeq parses the sequence number out of a job id ("sw-000042" → 42).
// Ids are zero-padded to 6 digits but may grow wider; parse the whole
// suffix so a daemon past sw-999999 never truncates (and reuses) ids.
func jobSeq(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "sw-")
	if !ok || digits == "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// restore scans the disk store and rebuilds the memory index. Damaged
// records are skipped (their artifacts read as misses); the sequence
// counter advances past every key that parses, damaged or not.
func (s *store) restore() {
	keys, err := s.results.Keys()
	if err != nil {
		s.log.Error("restore failed", "err", err)
		return
	}
	type restored struct {
		seq int
		id  string
	}
	var found []restored
	for _, k := range keys {
		if k.Kind != artifact.KindJob {
			continue
		}
		n, ok := jobSeq(k.Key)
		if !ok {
			continue
		}
		if n > s.seq {
			s.seq = n
		}
		found = append(found, restored{seq: n, id: k.Key})
	}
	// Restore in sequence order (zero-padding makes key order match up
	// to sw-999999, but sort by parsed seq so wider ids stay correct),
	// keeping the most recent `retain` in the index. Older jobs stay
	// disk-only (addressable by id) and are NOT counted as evictions —
	// they were never in this process's memory.
	sort.Slice(found, func(i, j int) bool { return found[i].seq < found[j].seq })
	if s.retain > 0 && len(found) > s.retain {
		found = found[len(found)-s.retain:]
	}
	// loadArchived reads each record whole (the envelope CRC covers the
	// full file, so a status-only partial read would be unverifiable);
	// the payload is dropped right away and the cost is bounded by
	// `retain` records, once, at boot.
	for _, r := range found {
		if j := s.loadArchived(r.id); j != nil {
			// Index entries hold no payload; GET /result re-reads disk.
			j.resultJSON = nil
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
		}
	}
}

// loadArchived reads one persisted job back as a terminal, archived job
// (nil when missing or damaged). Its hub replays a single terminal
// event, so /events on an archived job ends cleanly instead of hanging.
func (s *store) loadArchived(id string) *job {
	if s.results == nil {
		return nil
	}
	payload, err := s.results.Get(artifact.KindJob, id)
	if err != nil {
		return nil
	}
	st, result, err := decodeJobRecord(payload)
	if err != nil {
		return nil
	}
	j := &job{
		id:          id,
		hub:         newHub(),
		specVersion: st.SpecVersion,
		replicates:  st.Replicates,
		state:       st.State,
		errMsg:     st.Error,
		cells:      st.Cells,
		cellsDone:  st.CellsDone,
		created:    st.Created,
		traceID:    st.TraceID,
		archived:   true,
		hasResult:  len(result) > 0,
		resultJSON: result,
	}
	if st.Started != nil {
		j.started = *st.Started
	}
	if st.Finished != nil {
		j.finished = *st.Finished
	}
	j.hub.publish(client.Event{Type: terminalEventType(j.state), Job: &st})
	j.hub.close()
	return j
}

// terminalEventType maps a terminal state to its stream event type.
func terminalEventType(st client.JobState) string {
	switch st {
	case client.StateFailed:
		return "error"
	case client.StateCanceled:
		return "canceled"
	default:
		return "done"
	}
}

// add registers a new queued job for spec (already normalized and
// validated) and returns it, stamped with its trace id, timeline and
// submitting client.
func (s *store) add(spec *episim.SweepSpec, traceID string, trace *obs.Timeline, clientID string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	// restore() advanced seq past everything persisted, but an id can
	// still be occupied on disk — e.g. a rolling restart overlapping the
	// old process, which persisted jobs after this one scanned. Never
	// hand out an id whose artifact exists, or a later finish() would
	// overwrite someone else's result. (A cache dir still assumes a
	// single writer at a time; this guard covers the overlap window,
	// not sustained multi-daemon writes — scaled-out deployments give
	// each instance its own cache dir, with episim-gw routing by content
	// key so every instance's dir stays hot for its own keys.)
	for s.results != nil && s.results.Has(fmt.Sprintf("sw-%06d", s.seq)) {
		s.seq++
	}
	j := &job{
		id:          fmt.Sprintf("sw-%06d", s.seq),
		spec:        spec,
		specVersion: spec.Version(),
		replicates:  spec.Replicates,
		hub:         newHub(),
		state:      client.StateQueued,
		cells:      len(spec.Cells()),
		created:    s.now(),
		traceID:    traceID,
		trace:      trace,
		clientID:   clientID,
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return j
}

// get returns the job for id: from the memory index, or rehydrated
// read-only from the disk store when it was evicted (or the daemon
// restarted past its retention window). Rehydrated jobs are detached —
// they are not re-inserted, so eviction bounds hold.
func (s *store) get(id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok {
		return j, true
	}
	if j := s.loadArchived(id); j != nil {
		return j, true
	}
	return nil, false
}

// status snapshots one job under the store lock.
func (s *store) status(j *job) client.JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

func (s *store) statusLocked(j *job) client.JobStatus {
	st := client.JobStatus{
		ID:          j.id,
		State:       j.state,
		Error:       j.errMsg,
		Cells:       j.cells,
		CellsDone:   j.cellsDone,
		Replicates:  j.replicates,
		Created:     j.created,
		TraceID:     j.traceID,
		SpecVersion: j.specVersion,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// list snapshots the memory index, oldest first. With retention
// configured the index — and therefore this listing — is bounded:
// active jobs plus at most `retain` finished ones, in creation order;
// older finished sweeps remain individually addressable by id via the
// disk store.
func (s *store) list() []client.JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	out := make([]client.JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// resultBytes returns a finished job's canonical result serialization
// (nil while running/queued or when the run produced nothing). Archived
// index entries hold no payload; they re-read the disk store on demand.
// A job that HAD a result whose artifact can no longer be read returns
// an error — that is a (possibly transient) server-side failure, not
// "the run produced nothing", and must not surface as a permanent 410.
func (s *store) resultBytes(j *job) ([]byte, client.JobState, error) {
	s.mu.Lock()
	raw, state, archived, hasResult := j.resultJSON, j.state, j.archived, j.hasResult
	s.mu.Unlock()
	if raw == nil && archived && hasResult {
		if full := s.loadArchived(j.id); full != nil {
			raw = full.resultJSON
		}
		if raw == nil {
			return nil, state, fmt.Errorf("result artifact for %s unreadable", j.id)
		}
	}
	return raw, state, nil
}

// countWaiting reports how many of ids are still non-terminal, checked
// against the MEMORY index only: queued/running jobs are never evicted,
// so an id absent from memory is terminal (canceled then evicted) — and
// the metrics scrape path must not pay a disk rehydration per stale id.
func (s *store) countWaiting(ids []string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok && !j.state.Terminal() {
			n++
		}
	}
	return n
}

// counts tallies the memory index's jobs by state, plus the eviction
// counter, for the stats endpoint.
func (s *store) counts() (total int, byState map[client.JobState]int, evicted int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byState = map[client.JobState]int{}
	for _, j := range s.jobs {
		byState[j.state]++
	}
	return len(s.jobs), byState, s.evicted
}

// markRunning transitions a queued job to running and registers its
// cancel function; it reports false when the job was canceled while
// still queued (the runner then skips it).
func (s *store) markRunning(j *job, cancel context.CancelFunc) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != client.StateQueued {
		return false
	}
	j.state = client.StateRunning
	j.started = s.now()
	j.cancel = cancel
	return true
}

// incCellsDone counts one finalized (streamed or failed) cell, and
// bills it to the submitting client.
func (s *store) incCellsDone(j *job) {
	s.mu.Lock()
	j.cellsDone++
	clientID := j.clientID
	s.mu.Unlock()
	s.usage.Add(clientID, obs.ClientUsage{Cells: 1})
}

// finish records a run's terminal state and (possibly partial) result,
// spills the finished job to the disk store, and returns the final
// snapshot for the terminal event.
func (s *store) finish(j *job, state client.JobState, errMsg string, res *episim.SweepResult) client.JobStatus {
	var raw []byte
	if res != nil {
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err == nil {
			raw = buf.Bytes()
		}
	}
	s.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.resultJSON = raw
	j.hasResult = raw != nil
	j.finished = s.now()
	j.cancel = nil
	st := s.statusLocked(j)
	s.mu.Unlock()

	if s.results != nil {
		persistStart := time.Now()
		s.persist(st, raw)
		j.trace.Add("result_persist", "", persistStart, time.Now())
	}
	// Terminal bookkeeping for the SLO plane: spans dropped past the
	// per-job cap roll into the daemon counter exactly once (the timeline
	// is closed by the scheduler right after this returns, so the count
	// is final), and build-map entries with zero builds are content keys
	// this sweep needed that some cache tier already held — the client's
	// cache-hit credit.
	s.droppedSpans.Add(int64(j.trace.Dropped()))
	if res != nil && s.usage != nil {
		hits := int64(0)
		for _, builds := range []map[string]int{res.PopulationBuilds, res.PlacementBuilds, res.CheckpointBuilds} {
			for _, n := range builds {
				if n == 0 {
					hits++
				}
			}
		}
		if hits > 0 {
			s.usage.Add(j.clientID, obs.ClientUsage{CacheHits: hits})
		}
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return st
}

// persist spills a terminal job's record to the disk store (no-op
// without one). Failures are logged, not fatal: the job stays servable
// from memory for its retention window.
func (s *store) persist(st client.JobStatus, raw []byte) {
	if s.results == nil {
		return
	}
	payload, err := encodeJobRecord(st, raw)
	if err == nil {
		err = s.results.Put(artifact.KindJob, st.ID, payload)
	}
	if err != nil {
		s.log.Error("persist failed", "job", st.ID, "trace", st.TraceID, "err", err)
	}
}

// evictLocked enforces the memory index's retention cap and TTL over
// terminal jobs (running/queued jobs are never evicted). Evicted jobs
// stay on disk — get() rehydrates them — so eviction trades memory for
// a disk read, never for data loss when a disk store is configured.
func (s *store) evictLocked() {
	if s.retain <= 0 && s.ttl <= 0 {
		return
	}
	now := s.now()
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].state.Terminal() {
			terminal++
		}
	}
	var keep []string
	for _, id := range s.order {
		j := s.jobs[id]
		drop := false
		if j.state.Terminal() {
			if s.ttl > 0 && !j.finished.IsZero() && now.Sub(j.finished) > s.ttl {
				drop = true
			}
			if !drop && s.retain > 0 && terminal > s.retain {
				drop = true // oldest terminal first: order is creation order
			}
			if drop {
				terminal--
			}
		}
		if drop {
			delete(s.jobs, id)
			s.evicted++
		} else {
			keep = append(keep, id)
		}
	}
	s.order = keep
}

// requestCancel moves a queued job straight to canceled (publishing the
// terminal event) or signals a running job's context; terminal jobs are
// left untouched. It reports whether the job was still cancelable.
func (s *store) requestCancel(j *job) bool {
	s.mu.Lock()
	switch j.state {
	case client.StateQueued:
		j.state = client.StateCanceled
		j.finished = s.now()
		st := s.statusLocked(j)
		s.mu.Unlock()
		// A job canceled while queued never reaches execute(), which is
		// where queue_wait and the terminal run span are normally
		// recorded — without these two Adds its timeline ends on the open
		// admission span and component rollups see an unterminated job.
		// queue_wait covers the real time spent waiting; the zero-length
		// run span is the terminal marker the coverage contract promises
		// (queue_wait + run spans created→finished exactly). The timeline
		// then closes so nothing feeds service histograms after terminal.
		j.trace.Add("queue_wait", "", j.created, j.finished)
		j.trace.Add("run", string(client.StateCanceled), j.finished, j.finished)
		j.trace.Close()
		// This terminal path bypasses finish(): settle the drop counter
		// here too (the count is final once the timeline closes).
		s.droppedSpans.Add(int64(j.trace.Dropped()))
		j.hub.publish(client.Event{Type: "canceled", Job: &st})
		j.hub.close()
		// Canceled-while-queued is terminal without passing through
		// finish(); persist here too, or eviction/restart would forget
		// the job ever existed.
		s.persist(st, nil)
		return true
	case client.StateRunning:
		cancel := j.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	default:
		s.mu.Unlock()
		return false
	}
}
