package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Logger is the daemons' structured logger. It is log/slog's, so go vet
// checks the key/value pairs of every call.
type Logger = slog.Logger

// Level is a log severity.
type Level = slog.Level

const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// ParseLevel maps a -log-level flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (debug|info|warn|error)", s)
}

// NewLogger builds component's logger writing to w at level. format is
// "json" for one JSON object per line, keyed for log shippers: ts
// (RFC 3339, UTC), a lower-case level, msg, component, then the event's
// fields. Anything else gives slog's key=value text lines.
func NewLogger(w io.Writer, format string, level Level, component string) *Logger {
	opts := &slog.HandlerOptions{Level: level}
	if !strings.EqualFold(format, "json") {
		return slog.New(slog.NewTextHandler(w, opts)).With("component", component)
	}
	opts.ReplaceAttr = shipperKeys
	return slog.New(slog.NewJSONHandler(w, opts)).With("component", component)
}

// shipperKeys renames slog's time key to ts, in UTC, and lower-cases the
// level.
func shipperKeys(groups []string, a slog.Attr) slog.Attr {
	if len(groups) == 0 {
		switch a.Key {
		case slog.TimeKey:
			return slog.Time("ts", a.Value.Time().UTC())
		case slog.LevelKey:
			return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
		}
	}
	return a
}
