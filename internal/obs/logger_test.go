package obs

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"regexp"
	"strings"
	"testing"
	"time"
)

func mustLogger(t *testing.T, sb *strings.Builder, level, format string) *slog.Logger {
	t.Helper()
	l, err := NewLogger(sb, level, format)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLoggerText checks the text line shape: time, level, message, then
// the fields, quoting only when needed.
func TestLoggerText(t *testing.T) {
	var sb strings.Builder
	l := mustLogger(t, &sb, "info", "text")
	l.Info("listening", "addr", "127.0.0.1:8642", "workers", 8)
	want := regexp.MustCompile(`^time=\S+ level=INFO msg=listening addr=127\.0\.0\.1:8642 workers=8\n$`)
	if got := sb.String(); !want.MatchString(got) {
		t.Errorf("text line %q does not match %s", got, want)
	}

	sb.Reset()
	l.Warn("drain", "took", 1500*time.Millisecond, "reason", "deadline exceeded", "clean", false)
	if got := sb.String(); !strings.Contains(got, `level=WARN msg=drain took=1.5s reason="deadline exceeded" clean=false`) {
		t.Errorf("text fields wrong: %q", got)
	}
}

// TestLoggerJSON: every line parses as one JSON object with time, level
// and msg; errors log as their text, durations as integer nanoseconds.
func TestLoggerJSON(t *testing.T) {
	var sb strings.Builder
	l := mustLogger(t, &sb, "info", "json")
	l.Error("store append failed", "err", errors.New("disk full"), "records", int64(12), "took", 1500*time.Millisecond)
	var obj map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &obj); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, sb.String())
	}
	if obj["level"] != "ERROR" || obj["msg"] != "store append failed" || obj["err"] != "disk full" {
		t.Errorf("fields wrong: %v", obj)
	}
	if obj["records"] != float64(12) || obj["took"] != float64(1.5e9) {
		t.Errorf("numeric fields wrong: %v", obj)
	}
	if ts, _ := obj["time"].(string); ts == "" {
		t.Errorf("no time: %v", obj)
	} else if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Errorf("bad time: %v", err)
	}
}

// TestLoggerLevelFilter: lines below the configured level are dropped.
func TestLoggerLevelFilter(t *testing.T) {
	var sb strings.Builder
	l := mustLogger(t, &sb, "warn", "text")
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	got := sb.String()
	if strings.Contains(got, "msg=d\n") || strings.Contains(got, "msg=i\n") {
		t.Errorf("low levels leaked: %q", got)
	}
	if !strings.Contains(got, "level=WARN msg=w") || !strings.Contains(got, "level=ERROR msg=e") {
		t.Errorf("high levels missing: %q", got)
	}
	if !l.Enabled(context.Background(), slog.LevelError) || l.Enabled(context.Background(), slog.LevelInfo) {
		t.Error("Enabled disagrees with filtering")
	}
}

// TestNilLoggerSafe: the logger a nil one falls back to is off at every
// level, so nothing is even formatted.
func TestNilLoggerSafe(t *testing.T) {
	Discard.Error("y", "k", "v")
	if Discard.Enabled(context.Background(), slog.LevelError) {
		t.Error("Discard claims enabled")
	}
}

// TestParseLevelFormat covers the flag values NewLogger accepts and
// rejects.
func TestParseLevelFormat(t *testing.T) {
	var sb strings.Builder
	for _, level := range []string{"debug", "info", "warn", "error"} {
		for _, format := range []string{"text", "json"} {
			if _, err := NewLogger(&sb, level, format); err != nil {
				t.Errorf("NewLogger(%q, %q): %v", level, format, err)
			}
		}
	}
	for _, level := range []string{"loud", "", "warning", "INFO"} {
		if _, err := NewLogger(&sb, level, "text"); err == nil {
			t.Errorf("NewLogger accepted level %q", level)
		}
	}
	for _, format := range []string{"yaml", ""} {
		if _, err := NewLogger(&sb, "info", format); err == nil {
			t.Errorf("NewLogger accepted format %q", format)
		}
	}
	if sb.Len() != 0 {
		t.Errorf("building a logger wrote %q", sb.String())
	}
}
