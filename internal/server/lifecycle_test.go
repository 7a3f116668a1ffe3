package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/artifact"
	"repro/internal/obs"
)

// TestJobLifecycleOrdering pins store.terminate's contract through every
// way a sweep can end: a terminal status implies the record is on disk
// and the trace is complete. The probe is the job's own timeline
// observer — at the moment the terminal run span is recorded the status
// must still be non-terminal and the record must already exist — so a
// reopened visibility window fails every run, not one run in thirty.
func TestJobLifecycleOrdering(t *testing.T) {
	const failSeed = 99
	ctx := context.Background()
	pump := func(step chan struct{}, n int) {
		for i := 0; i < n; i++ {
			step <- struct{}{}
		}
	}
	cases := []struct {
		name string
		// blocked parks another sweep in the only admission slot first, so
		// the job under test never leaves the queue.
		blocked bool
		seed    uint64
		end     func(t *testing.T, srv *Server, c *client.Client, id string, step chan struct{})
		want    client.JobState
	}{
		{name: "done", want: client.StateDone,
			end: func(t *testing.T, srv *Server, c *client.Client, id string, step chan struct{}) {
				pump(step, 3)
			}},
		{name: "runner error", seed: failSeed, want: client.StateFailed,
			end: func(t *testing.T, srv *Server, c *client.Client, id string, step chan struct{}) {
				pump(step, 3)
			}},
		{name: "cancel while running", want: client.StateCanceled,
			end: func(t *testing.T, srv *Server, c *client.Client, id string, step chan struct{}) {
				pump(step, 1) // received by the runner: the job is running
				if err := c.Cancel(ctx, id); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "cancel while queued", blocked: true, want: client.StateCanceled,
			end: func(t *testing.T, srv *Server, c *client.Client, id string, step chan struct{}) {
				if err := c.Cancel(ctx, id); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "queued at Close", blocked: true, want: client.StateCanceled,
			end: func(t *testing.T, srv *Server, c *client.Client, id string, step chan struct{}) {
				srv.Close()
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			step := make(chan struct{})
			scripted := scriptedRunner(step)
			run := func(ctx context.Context, spec *episim.SweepSpec, opts *episim.SweepOptions) (*episim.SweepResult, error) {
				res, err := scripted(ctx, spec, opts)
				if err == nil && spec.Seed == failSeed {
					err = errors.New("boom")
				}
				return res, err
			}
			srv, c := newTestServer(t, Config{Workers: 1, MaxActive: 1, CacheDir: t.TempDir()}, run)
			if tc.blocked {
				if _, err := c.Submit(ctx, testServerSpec()); err != nil {
					t.Fatal(err)
				}
			}
			spec := testServerSpec()
			if tc.seed != 0 {
				spec.Seed = tc.seed
			}
			ack, err := c.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			j, ok := srv.store.get(ack.ID)
			if !ok {
				t.Fatal("submitted job missing from the store")
			}

			// The runner is parked on step (or the job is queued), so the
			// probe is in place before anything can end the job.
			var runSpans atomic.Int32
			j.trace.SetObserver(func(sp obs.Span) {
				srv.observeSpan(sp)
				if sp.Name != "run" {
					return
				}
				runSpans.Add(1)
				if st := srv.store.status(j); st.State.Terminal() {
					t.Errorf("status already %s when the run span was recorded", st.State)
				}
				if !srv.store.results.Has(ack.ID) {
					t.Error("run span recorded before the job record was on disk")
				}
			})
			_, live, unsub := j.hub.subscribe(0)
			defer unsub()

			tc.end(t, srv, c, ack.ID, step)
			for open := true; open; {
				select {
				case _, open = <-live:
				case <-time.After(10 * time.Second):
					t.Fatal("job never reached a terminal event")
				}
			}

			st := srv.store.status(j)
			if st.State != tc.want || st.Finished == nil {
				t.Fatalf("status = %+v, want %s with a finish time", st, tc.want)
			}
			if n := runSpans.Load(); n != 1 {
				t.Fatalf("observed %d run spans, want 1", n)
			}

			// Exactly one terminal event, of the state's type, then a closed hub.
			replay, ch, _ := j.hub.subscribe(0)
			select {
			case _, open := <-ch:
				if open {
					t.Fatal("hub delivered an event after the terminal one")
				}
			default:
				t.Fatal("hub still open after the terminal event")
			}
			var terminal []client.Event
			for _, ev := range replay {
				if ev.Job != nil {
					terminal = append(terminal, ev)
				}
			}
			if len(terminal) != 1 || terminal[0].Type != terminalEventType(tc.want) ||
				terminal[0].Seq != len(replay)-1 || terminal[0].Job.State != tc.want {
				t.Fatalf("terminal events = %+v, want one trailing %q", terminal, terminalEventType(tc.want))
			}

			// Timeline closed, queue_wait + run tiling created→finished.
			if !j.trace.Closed() {
				t.Fatal("timeline not closed")
			}
			spans, _ := j.trace.Snapshot()
			var wait, runSp []obs.Span
			for _, sp := range spans {
				switch sp.Name {
				case "queue_wait":
					wait = append(wait, sp)
				case "run":
					runSp = append(runSp, sp)
				}
			}
			if len(wait) != 1 || len(runSp) != 1 {
				t.Fatalf("got %d queue_wait and %d run spans, want one each", len(wait), len(runSp))
			}
			if !wait[0].Start.Equal(st.Created) || !wait[0].End.Equal(runSp[0].Start) ||
				!runSp[0].End.Equal(*st.Finished) || runSp[0].Detail != string(tc.want) {
				t.Fatalf("queue_wait %v..%v + run %v..%v (%s) do not tile %v..%v",
					wait[0].Start, wait[0].End, runSp[0].Start, runSp[0].End, runSp[0].Detail, st.Created, *st.Finished)
			}

			// The disk record carries exactly the visible status.
			payload, err := srv.store.results.Get(artifact.KindJob, ack.ID)
			if err != nil {
				t.Fatal(err)
			}
			disk, _, err := decodeJobRecord(payload)
			if err != nil {
				t.Fatal(err)
			}
			diskJSON, _ := json.Marshal(disk)
			memJSON, _ := json.Marshal(st)
			if !bytes.Equal(diskJSON, memJSON) {
				t.Fatalf("disk status %s != visible status %s", diskJSON, memJSON)
			}

			// One ledger: every job in the index is in exactly one state.
			stats := srv.stats()
			if sum := stats.QueueDepth + stats.ActiveSweeps + stats.SweepsDone +
				stats.SweepsFailed + stats.SweepsCanceled; sum != stats.SweepsTotal {
				t.Fatalf("states sum to %d of %d sweeps: %+v", sum, stats.SweepsTotal, stats)
			}
		})
	}
}

// TestSchedulerPanicFailsOnlyItsJob: a runner that panics fails its own job,
// with the panic and its stack as the error, and the daemon goes on serving:
// the job queued behind it in the only admission slot runs to done, and so
// does one submitted afterwards.
func TestSchedulerPanicFailsOnlyItsJob(t *testing.T) {
	const panicSeed = 99
	ctx := context.Background()
	step := make(chan struct{}, 64)
	for i := 0; i < cap(step); i++ {
		step <- struct{}{}
	}
	scripted := scriptedRunner(step)
	run := func(ctx context.Context, spec *episim.SweepSpec, opts *episim.SweepOptions) (*episim.SweepResult, error) {
		if spec.Seed == panicSeed {
			panic("runner exploded")
		}
		return scripted(ctx, spec, opts)
	}
	_, c := newTestServer(t, Config{Workers: 1, MaxActive: 1, CacheDir: t.TempDir()}, run)
	bad := testServerSpec()
	bad.Seed = panicSeed
	badAck, err := c.Submit(ctx, bad)
	if err != nil {
		t.Fatal(err)
	}
	nextAck, err := c.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, c, badAck.ID)
	if st.State != client.StateFailed || !strings.HasPrefix(st.Error, "panic: runner exploded\n") ||
		!strings.Contains(st.Error, "TestSchedulerPanicFailsOnlyItsJob") {
		t.Fatalf("panicking job ended %s with error %q, want failed with the panic and its stack", st.State, st.Error)
	}
	if st := waitTerminal(t, c, nextAck.ID); st.State != client.StateDone {
		t.Fatalf("job queued behind the panic ended %s (%s), want done", st.State, st.Error)
	}
	lastAck, err := c.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, c, lastAck.ID); st.State != client.StateDone {
		t.Fatalf("job submitted after the panic ended %s (%s), want done", st.State, st.Error)
	}
}
