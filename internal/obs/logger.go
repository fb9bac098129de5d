package obs

import (
	"fmt"
	"io"
	"log/slog"
)

var logLevels = map[string]slog.Level{
	"debug": slog.LevelDebug,
	"info":  slog.LevelInfo,
	"warn":  slog.LevelWarn,
	"error": slog.LevelError,
}

// NewLogger builds a logger writing to w from -log-level and
// -log-format flag values, so every command parses them identically:
// level is debug, info, warn or error; format is text (slog's key=value
// lines) or json (one object per line).
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, ok := logLevels[level]
	if !ok {
		return nil, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
}

// Discard is the logger a component falls back to when given none. Its
// level sits above Error, so a call returns before a record is built.
var Discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
