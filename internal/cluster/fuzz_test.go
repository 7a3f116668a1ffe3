package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/client"
	"repro/internal/obs"
)

// FuzzRewriteEventLine holds the rewriter every backend event line passes
// through to its contract: no input panics; a line without "job" comes
// back unchanged; and a line whose event carries a job comes back as
// valid JSON holding the same event, its job id re-issued as
// prefix + "-" + id. Seeds in testdata/fuzz/FuzzRewriteEventLine: a cell
// event, a terminal done event, malformed JSON, "job" as a string value and
// a prefix that is not UTF-8.
func FuzzRewriteEventLine(f *testing.F) {
	backend := httptest.NewServer(http.NotFoundHandler())
	defer backend.Close()
	g, err := New(Config{Backends: []string{backend.URL}, ProbeInterval: time.Hour,
		Logger: obs.NewLogger(io.Discard, "text", obs.LevelInfo, "episim-gw")})
	if err != nil {
		f.Fatal(err)
	}
	defer g.Close()
	f.Fuzz(func(t *testing.T, line []byte, prefix string) {
		in := bytes.Clone(line)
		out := g.rewriteEventLine(line, prefix)
		if !bytes.Equal(line, in) {
			t.Fatalf("the rewriter modified its input %q", in)
		}
		if !bytes.Contains(in, []byte(`"job"`)) {
			if !bytes.Equal(out, in) {
				t.Fatalf("a line without a job changed: %q -> %q", in, out)
			}
			return
		}
		var want client.Event
		if json.Unmarshal(in, &want) != nil || want.Job == nil {
			return
		}
		// JSON strings are valid UTF-8: an invalid byte of the id arrives
		// as U+FFFD.
		id, _ := json.Marshal(prefix + "-" + want.Job.ID)
		json.Unmarshal(id, &want.Job.ID)
		if _, err := json.Marshal(want); err != nil {
			return // unencodable (a time past year 9999): passed through
		}
		var got client.Event
		if !json.Valid(out) || json.Unmarshal(out, &got) != nil {
			t.Fatalf("rewrote %q to invalid JSON %q", in, out)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rewrote %q to %q: event %+v, want %+v", in, out, got, want)
		}
	})
}
