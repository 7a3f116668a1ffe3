package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	episim "repro"
	"repro/client"
	"repro/internal/obs"
)

// sweepRunner executes one sweep; production wires episim.RunSweepContext,
// tests substitute a controllable fake.
type sweepRunner func(context.Context, *episim.SweepSpec, *episim.SweepOptions) (*episim.SweepResult, error)

// scheduler owns the job queue and the runner pool: at most maxActive
// sweeps execute at once (FIFO admission), and all of them share one
// slot pool and one placement cache, so total simulation parallelism
// and memory stay bounded no matter how many requests are in flight.
type scheduler struct {
	store     *store
	cache     *episim.SweepCache
	slots     *episim.SweepSlots
	run       sweepRunner
	workers   int
	maxActive int

	mu   sync.Mutex
	cond *sync.Cond
	// queue is FIFO and may still hold jobs canceled while waiting;
	// markRunning refuses those when a runner pops them.
	queue  []*job
	closed bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	cellsStreamed atomic.Int64

	// kernelMu guards kernelDays: simulated days by executing kernel,
	// accumulated from every finalized cell (feeds the
	// episimd_kernel_days_total metric).
	kernelMu   sync.Mutex
	kernelDays map[string]int64
}

func newScheduler(st *store, cache *episim.SweepCache, slots *episim.SweepSlots,
	workers, maxActive int, run sweepRunner) *scheduler {
	s := &scheduler{
		store:   st,
		cache:   cache,
		slots:   slots,
		run:     run,
		workers: workers,
	}
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if maxActive < 1 {
		maxActive = 2
	}
	s.maxActive = maxActive
	for i := 0; i < maxActive; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s
}

// submit registers and enqueues a sweep, returning its job. A
// submission landing in the shutdown window (scheduler closed, listener
// still draining) is terminated immediately so its status and event
// stream resolve instead of queuing forever.
func (s *scheduler) submit(spec *episim.SweepSpec, traceID string, trace *obs.Timeline, clientID string) *job {
	j := s.store.add(spec, traceID, trace, clientID)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.store.requestCancel(j)
		return j
	}
	s.queue = append(s.queue, j)
	s.mu.Unlock()
	s.cond.Signal()
	return j
}

// kernelDaysSnapshot copies the per-kernel day counters (nil when no
// sweep has run a non-default kernel yet).
func (s *scheduler) kernelDaysSnapshot() map[string]int64 {
	s.kernelMu.Lock()
	defer s.kernelMu.Unlock()
	if len(s.kernelDays) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.kernelDays))
	for k, n := range s.kernelDays {
		out[k] = n
	}
	return out
}

// close stops admission, cancels running sweeps, waits for the runner
// pool to drain, then terminates jobs still queued — their hubs must
// publish a terminal event and close, or subscribers attached to a
// queued sweep's event stream would hang a graceful shutdown forever.
func (s *scheduler) close() {
	s.cancel()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	s.mu.Lock()
	queued := s.queue
	s.queue = nil
	s.mu.Unlock()
	for _, j := range queued {
		s.store.requestCancel(j)
	}
}

// runner is one admission slot: pop, execute, repeat.
func (s *scheduler) runner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.execute(j)
	}
}

// execute runs one sweep end to end: transition to running, stream each
// finalized cell into the job's hub, then terminate it with the state the
// run's outcome names.
func (s *scheduler) execute(j *job) {
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	if !s.store.markRunning(j, cancel) {
		return // canceled while queued
	}

	// Clamp the sweep's own goroutine count to the service pool: the
	// shared slots bound actual parallelism, the clamp just avoids
	// spawning idle workers.
	if j.spec.Workers <= 0 || j.spec.Workers > s.workers {
		j.spec.Workers = s.workers
	}

	onCell := func(cell episim.SweepCellResult) {
		s.cellsStreamed.Add(1)
		if len(cell.KernelDays) > 0 {
			s.kernelMu.Lock()
			if s.kernelDays == nil {
				s.kernelDays = make(map[string]int64)
			}
			for k, n := range cell.KernelDays {
				s.kernelDays[k] += n
			}
			s.kernelMu.Unlock()
		}
		s.store.incCellsDone(j)
		c := cell
		j.hub.publish(client.Event{Type: "cell", Cell: &c})
	}
	res, err := s.run(ctx, j.spec, &episim.SweepOptions{
		Cache:  s.cache,
		Slots:  s.slots,
		OnCell: onCell,
		Trace:  j.trace,
	})

	switch {
	case err == nil:
		// A sweep that ran to completion is done even if a cancel (or
		// shutdown) landed after its last cell — the result is whole.
		s.store.terminate(j, client.StateRunning, client.StateDone, "", res)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.store.terminate(j, client.StateRunning, client.StateCanceled, "", res)
	default:
		// A genuine failure stays a failure even when a shutdown cancel
		// raced the run's return — the error message is the diagnosis.
		s.store.terminate(j, client.StateRunning, client.StateFailed, err.Error(), res)
	}
}
