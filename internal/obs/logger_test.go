package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestLoggerTextFormat(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, "text", LevelInfo, "episimd")
	l.Info("backend healthy", "backend", "node-0", "err", errors.New("boom boom"))
	l.Debug("suppressed")
	l.Warn("watch out")
	want := []string{
		`level=INFO msg="backend healthy" component=episimd backend=node-0 err="boom boom"`,
		`level=WARN msg="watch out" component=episimd`,
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("text log = %q, want %d lines", sb.String(), len(want))
	}
	for i, line := range lines {
		ts, rest, _ := strings.Cut(strings.TrimPrefix(line, "time="), " ")
		if _, err := time.Parse(time.RFC3339, ts); err != nil || rest != want[i] {
			t.Errorf("text line %d:\ngot  %q\nwant time=<RFC 3339> %s", i, line, want[i])
		}
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, "json", LevelDebug, "episim-gw")
	l.With("trace", "t-9").Info("routed", "backend", "node-1")
	var obj map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &obj); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, sb.String())
	}
	for k, want := range map[string]string{
		"level": "info", "msg": "routed", "component": "episim-gw",
		"trace": "t-9", "backend": "node-1",
	} {
		if obj[k] != want {
			t.Errorf("%s = %v, want %s", k, obj[k], want)
		}
	}
	if _, err := time.Parse(time.RFC3339Nano, obj["ts"].(string)); err != nil {
		t.Errorf("ts not RFC3339: %v", obj["ts"])
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "": LevelInfo,
		"warn": LevelWarn, "warning": LevelWarn, "ERROR": LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("bogus level accepted")
	}
}
