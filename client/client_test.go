package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	episim "repro"
)

// sseEvent renders one server-side SSE frame the way episimd does.
func sseEvent(t *testing.T, ev Event) string {
	t.Helper()
	payload, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, payload)
}

// fromParam parses the resume point of an incoming stream request.
func fromParam(r *http.Request) int {
	n, _ := strconv.Atoi(r.URL.Query().Get("from"))
	return n
}

// TestStreamReconnectsAfterConnectionReset: a mid-stream TCP reset (a
// dying proxy, a restarted gateway) must not surface an error or lose
// events — the client resumes from last-seen+1 and the caller observes
// one gapless sequence.
func TestStreamReconnectsAfterConnectionReset(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		if n == 1 {
			if from := fromParam(r); from != 0 {
				t.Errorf("first connect from=%d, want 0", from)
			}
			// Two events, then an abrupt reset (SO_LINGER 0 → RST): the
			// client's scanner sees a transport error, not a clean end.
			fmt.Fprint(w, sseEvent(t, Event{Seq: 0, Type: "cell"}))
			fmt.Fprint(w, sseEvent(t, Event{Seq: 1, Type: "cell"}))
			w.(http.Flusher).Flush()
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			if tcp, ok := conn.(*net.TCPConn); ok {
				tcp.SetLinger(0)
			}
			conn.Close()
			return
		}
		// Reconnect: must resume exactly past the last delivered event.
		if from := fromParam(r); from != 2 {
			t.Errorf("reconnect from=%d, want 2", from)
		}
		if lei := r.Header.Get("Last-Event-ID"); lei != "1" {
			t.Errorf("reconnect Last-Event-ID=%q, want 1", lei)
		}
		fmt.Fprint(w, sseEvent(t, Event{Seq: 2, Type: "cell"}))
		fmt.Fprint(w, sseEvent(t, Event{Seq: 3, Type: "done", Job: &JobStatus{ID: "sw-000001", State: StateDone}}))
	}))
	defer ts.Close()

	var seqs []int
	err := New(ts.URL).Stream(context.Background(), "sw-000001", 0, func(ev Event) error {
		seqs = append(seqs, ev.Seq)
		return nil
	})
	if err != nil {
		t.Fatalf("Stream over a reset connection: %v", err)
	}
	if want := []int{0, 1, 2, 3}; fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("delivered seqs %v, want %v", seqs, want)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d connections, want 2", got)
	}
}

// TestStreamRetriesServerErrors: a 5xx (a gateway whose backend is mid-
// failover) is transient; the client backs off and retries. A 4xx is
// permanent and fails immediately.
func TestStreamRetriesServerErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"backend draining"}`, http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, sseEvent(t, Event{Seq: 0, Type: "done", Job: &JobStatus{ID: "sw-000001", State: StateDone}}))
	}))
	defer ts.Close()

	start := time.Now()
	if err := New(ts.URL).Stream(context.Background(), "sw-000001", 0, func(Event) error { return nil }); err != nil {
		t.Fatalf("Stream across a 502: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d connections, want 2", calls.Load())
	}
	if time.Since(start) < 200*time.Millisecond {
		t.Fatal("retry happened without backoff")
	}

	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown sweep"}`, http.StatusNotFound)
	}))
	defer notFound.Close()
	err := New(notFound.URL).Stream(context.Background(), "sw-999999", 0, func(Event) error { return nil })
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusNotFound {
		t.Fatalf("Stream against 404 = %v, want permanent apiError", err)
	}
}

// TestStreamCallbackErrorIsFatal: an error from the caller's fn ends the
// stream at once — it must never be retried (the callback already saw
// the event; replaying it would double-process).
func TestStreamCallbackErrorIsFatal(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, sseEvent(t, Event{Seq: 0, Type: "cell"}))
		fmt.Fprint(w, sseEvent(t, Event{Seq: 1, Type: "done", Job: &JobStatus{ID: "sw-000001", State: StateDone}}))
	}))
	defer ts.Close()

	boom := errors.New("boom")
	err := New(ts.URL).Stream(context.Background(), "sw-000001", 0, func(Event) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Stream returned %v, want the callback's error", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("callback error triggered %d connections, want 1", calls.Load())
	}
}

// TestStreamGivesUpWithoutProgress: endless transient failures with no
// forward progress eventually fail instead of spinning forever.
func TestStreamGivesUpWithoutProgress(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"always down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	err := New(ts.URL).Stream(context.Background(), "sw-000001", 0, func(Event) error { return nil })
	if err == nil {
		t.Fatal("Stream against a permanently-5xx server must eventually fail")
	}
}

// TestSubmitHonorsRetryAfter: a 429 with Retry-After advice is waited
// out and retried transparently; the caller sees one successful ack.
func TestSubmitHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("X-Episim-Client"); got != "tenant-t" {
			t.Errorf("X-Episim-Client = %q, want tenant-t", got)
		}
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-Episim-Retry-After-Ms", "20")
			http.Error(w, `{"error":"throttled"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(SubmitReply{ID: "sw-000001", Cells: 1, Simulations: 1})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.ClientID = "tenant-t"
	ack, err := c.Submit(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID != "sw-000001" || calls.Load() != 3 {
		t.Fatalf("ack %+v after %d calls, want sw-000001 on the 3rd", ack, calls.Load())
	}
}

// TestSubmitSurfacesExhaustedThrottle: when the server never relents,
// Submit stops retrying and surfaces the 429 with its advice intact for
// callers running their own backoff.
func TestSubmitSurfacesExhaustedThrottle(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("X-Episim-Retry-After-Ms", "5")
		http.Error(w, `{"error":"throttled"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	_, err := New(ts.URL).Submit(context.Background(), nil)
	if err == nil {
		t.Fatal("Submit against a permanent 429 must fail")
	}
	if wait, ok := RetryAfter(err); !ok || wait != 5*time.Millisecond {
		t.Fatalf("RetryAfter(err) = %v %v, want 5ms true", wait, ok)
	}
	if calls.Load() != 5 { // initial attempt + maxThrottleRetries
		t.Fatalf("made %d attempts, want 5", calls.Load())
	}
}

// TestSubmitNoRetryWithoutAdvice: a 429 carrying no Retry-After is not
// blindly retried — the server gave no schedule, hammering it is wrong.
func TestSubmitNoRetryWithoutAdvice(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"throttled"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	if _, err := New(ts.URL).Submit(context.Background(), nil); err == nil {
		t.Fatal("Submit must surface the 429")
	}
	if calls.Load() != 1 {
		t.Fatalf("made %d attempts, want 1", calls.Load())
	}
}

// TestSubmitWithOptions: identity headers override the Client's per
// call, the spec goes on the wire as given, and neither the Client nor
// the caller's spec is mutated.
func TestSubmitWithOptions(t *testing.T) {
	var gotClient, gotTrace, gotDays atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotClient.Store(r.Header.Get("X-Episim-Client"))
		gotTrace.Store(r.Header.Get(TraceHeader))
		var spec episim.SweepSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			t.Errorf("decode submitted spec: %v", err)
		}
		gotDays.Store(spec.Days)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(SubmitReply{ID: "sw-000002"})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.ClientID = "client-level"
	spec := &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{Name: "p", People: 10, Locations: 2}},
		Placements:  []episim.SweepPlacement{{Strategy: "RR", Ranks: 1}},
		Replicates:  1,
		Days:        9,
		Seed:        1,
	}
	before, _ := json.Marshal(spec)
	if _, err := c.SubmitWith(context.Background(), spec, SubmitOptions{
		ClientID: "per-call",
		TraceID:  "trace-42",
	}); err != nil {
		t.Fatal(err)
	}
	if got := gotClient.Load(); got != "per-call" {
		t.Fatalf("X-Episim-Client = %q, want per-call override", got)
	}
	if got := gotTrace.Load(); got != "trace-42" {
		t.Fatalf("trace header = %q, want trace-42", got)
	}
	if got := gotDays.Load(); got != 9 {
		t.Fatalf("submitted spec days = %v, want 9", got)
	}
	if after, _ := json.Marshal(spec); string(after) != string(before) {
		t.Fatal("SubmitWith mutated the caller's spec")
	}
	if c.ClientID != "client-level" || c.TraceID != "" {
		t.Fatal("SubmitWith mutated the Client")
	}
}

// TestErrorSentinelMatching pins the errors.Is contract: 429 matches
// ErrThrottled, 404 matches ErrNotFound, and neither matches the other.
func TestErrorSentinelMatching(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"throttled"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	_, err := New(ts.URL).Submit(context.Background(), nil)
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("429 error %v does not match ErrThrottled", err)
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatalf("429 error %v wrongly matches ErrNotFound", err)
	}

	nf := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown sweep"}`, http.StatusNotFound)
	}))
	defer nf.Close()
	if _, err := New(nf.URL).Status(context.Background(), "sw-000099"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("404 error %v does not match ErrNotFound", err)
	}
}
