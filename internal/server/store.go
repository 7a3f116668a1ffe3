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
//
// A job's lifecycle is three store transitions and nothing else: add
// (queued), markRunning (running) and terminate (done, failed or
// canceled — whether the run returned, a queued job was canceled, or the
// daemon shut down around it). terminate keeps one ordering contract: a
// terminal status implies the record is on disk and the trace is
// complete. It persists the record and closes the timeline first, makes
// the terminal status visible (to readers and to retention) second, and
// publishes the terminal event last.
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

// job is one submitted sweep and its full lifecycle state. The header
// (through clientID) is immutable once the job is built; every field
// after it is guarded by the owning store's mutex.
type job struct {
	id  string
	hub *hub
	// spec is nil for jobs rehydrated from disk after a restart or
	// eviction (only their status and result survive; they are terminal,
	// so nothing needs the spec anymore).
	spec *episim.SweepSpec
	// trace is the span timeline (nil for rehydrated jobs — spans are
	// in-memory only, the trace id survives via the job record).
	trace *obs.Timeline
	// clientID attributes this job's cells, sim time and cache hits to
	// the submitting client in the usage ledger ("" for rehydrated jobs).
	clientID string

	// st is the job's status exactly as every endpoint, event and disk
	// record reports it — held once, written only by the store's three
	// transitions and incCellsDone. Its trace id and spec version ride
	// the persisted record, so rehydrated jobs still report both.
	st client.JobStatus
	// ending marks a claimed terminal transition whose status is not yet
	// visible: terminate is persisting the record, and neither a second
	// terminate nor markRunning may take the job meanwhile.
	ending bool
	// resultJSON is the result's canonical serialization, materialized
	// once at terminate: it is what GET /result serves and what spills to
	// disk, so the bytes a client sees are identical before and after a
	// daemon restart.
	resultJSON []byte
	// archived marks a job whose payload lives (only) in the disk store.
	archived  bool
	hasResult bool
	// cancel aborts the run's context once the job is running; queued
	// jobs are canceled by terminating them.
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
		id:         id,
		hub:        newHub(),
		st:         st,
		archived:   true,
		hasResult:  len(result) > 0,
		resultJSON: result,
	}
	j.hub.publish(client.Event{Type: terminalEventType(st.State), Job: &st})
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
	// hand out an id whose artifact exists, or a later terminate would
	// overwrite someone else's result. (A cache dir still assumes a
	// single writer at a time; this guard covers the overlap window,
	// not sustained multi-daemon writes — scaled-out deployments give
	// each instance its own cache dir, with episim-gw routing by content
	// key so every instance's dir stays hot for its own keys.)
	for s.results != nil && s.results.Has(fmt.Sprintf("sw-%06d", s.seq)) {
		s.seq++
	}
	id := fmt.Sprintf("sw-%06d", s.seq)
	j := &job{
		id:       id,
		hub:      newHub(),
		spec:     spec,
		trace:    trace,
		clientID: clientID,
		st: client.JobStatus{
			ID:          id,
			State:       client.StateQueued,
			Cells:       len(spec.Cells()),
			Replicates:  spec.Replicates,
			Created:     s.now(),
			TraceID:     traceID,
			SpecVersion: spec.Version(),
		},
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
	return j.st
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
		out = append(out, s.jobs[id].st)
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
	raw, state, archived, hasResult := j.resultJSON, j.st.State, j.archived, j.hasResult
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

// counts tallies the memory index's jobs by state, plus the eviction
// counter: the one ledger behind the stats endpoint and the readiness
// probe (queued is the queue depth, running the active sweeps).
func (s *store) counts() (total int, byState map[client.JobState]int, evicted int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byState = map[client.JobState]int{}
	for _, j := range s.jobs {
		byState[j.st.State]++
	}
	return len(s.jobs), byState, s.evicted
}

// markRunning transitions a queued job to running, registers its cancel
// function and records the queue_wait span — exactly the admission
// delay. It reports false when the job was canceled while still queued
// (the runner then skips it).
func (s *store) markRunning(j *job, cancel context.CancelFunc) bool {
	s.mu.Lock()
	if j.ending || j.st.State != client.StateQueued {
		s.mu.Unlock()
		return false
	}
	started := s.now()
	j.st.State, j.st.Started, j.cancel = client.StateRunning, &started, cancel
	created := j.st.Created
	s.mu.Unlock()
	j.trace.Add("queue_wait", "", created, started)
	return true
}

// incCellsDone counts one finalized (streamed or failed) cell, and
// bills it to the submitting client.
func (s *store) incCellsDone(j *job) {
	s.mu.Lock()
	j.st.CellsDone++
	s.mu.Unlock()
	s.usage.Add(j.clientID, obs.ClientUsage{Cells: 1})
}

// terminate is the one way a job ends: done, failed, canceled while
// running, canceled while queued, or still queued at shutdown. It claims
// the transition out of state `from` under the lock — reporting false
// when the job already left that state or another caller is ending it —
// and then works in the order the lifecycle contract promises: persist
// the record with its (possibly partial) result, complete and close the
// timeline, settle the per-job counters, and only then make the terminal
// status visible to readers and to retention. The terminal event
// publishes last, so a client reacting to it finds all of the above.
func (s *store) terminate(j *job, from, state client.JobState, errMsg string, res *episim.SweepResult) bool {
	var raw []byte
	if res != nil {
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err == nil {
			raw = buf.Bytes()
		}
	}
	s.mu.Lock()
	if j.ending || j.st.State != from {
		s.mu.Unlock()
		return false
	}
	j.ending, j.cancel = true, nil
	st, finished := j.st, s.now()
	st.State, st.Error, st.Finished = state, errMsg, &finished
	s.mu.Unlock()

	// queue_wait + run tile created→finished exactly, the trace endpoint's
	// coverage contract: a job that was never admitted waited its whole
	// life, and its zero-length run span is the terminal marker component
	// rollups look for.
	runStart := finished
	if st.Started != nil {
		runStart = *st.Started
	} else {
		j.trace.Add("queue_wait", "", st.Created, finished)
	}
	if s.results != nil {
		persistStart := time.Now()
		s.persist(st, raw)
		j.trace.Add("result_persist", "", persistStart, time.Now())
	}
	j.trace.Add("run", string(state), runStart, finished)
	// Detach the timeline from the service histograms: a canceled run's
	// in-flight replicates may still land spans — they stay visible in the
	// job's trace but must not count as fresh service latency.
	j.trace.Close()
	// The drop count is final once the timeline is closed; build-map
	// entries with zero builds are content keys this sweep needed that
	// some cache tier already held — the client's cache-hit credit.
	s.droppedSpans.Add(int64(j.trace.Dropped()))
	if res != nil {
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
	j.st, j.resultJSON, j.hasResult = st, raw, raw != nil
	s.evictLocked()
	s.mu.Unlock()
	j.hub.publish(client.Event{Type: terminalEventType(state), Job: &st})
	j.hub.close()
	return true
}

// persist spills a terminal job's record to the disk store. Failures
// are logged, not fatal: the job stays servable from memory for its
// retention window.
func (s *store) persist(st client.JobStatus, raw []byte) {
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
		if s.jobs[id].st.State.Terminal() {
			terminal++
		}
	}
	var keep []string
	for _, id := range s.order {
		j := s.jobs[id]
		drop := false
		if j.st.State.Terminal() {
			if s.ttl > 0 && j.st.Finished != nil && now.Sub(*j.st.Finished) > s.ttl {
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

// requestCancel terminates a queued job or signals a running job's
// context (its run then ends through terminate); terminal jobs are left
// untouched. It reports whether the job was still cancelable.
func (s *store) requestCancel(j *job) bool {
	if s.terminate(j, client.StateQueued, client.StateCanceled, "", nil) {
		return true
	}
	s.mu.Lock()
	terminal, cancel := j.st.State.Terminal(), j.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return !terminal
}
