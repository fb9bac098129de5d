package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"badabing/internal/trace"
)

// writeTrace writes recs to a trace file in a test directory.
func writeTrace(t *testing.T, recs []trace.Record) string {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{BitsPerSec: 1_000_000, QueueCap: 3000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.bbtr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceDifferencingCrossCheck: traceanalyze finds the lost packets
// by trace differencing and compares them with the Drop records. A
// packet still queued when the trace ends never left either, so that
// trace differs.
func TestTraceDifferencingCrossCheck(t *testing.T) {
	ms := time.Millisecond
	recs := []trace.Record{
		{T: 0, Event: trace.Arrive, ID: 1, Size: 1000, QueueBytes: 1000},
		{T: 1 * ms, Event: trace.Arrive, ID: 2, Size: 1000, QueueBytes: 2000},
		{T: 2 * ms, Event: trace.Arrive, ID: 3, Size: 1000, QueueBytes: 3000},
		{T: 2 * ms, Event: trace.Arrive, ID: 4, Size: 1000, QueueBytes: 3000},
		{T: 2 * ms, Event: trace.Drop, ID: 4, Size: 1000, QueueBytes: 3000},
		{T: 8 * ms, Event: trace.Depart, ID: 1, Size: 1000, QueueBytes: 2000},
		{T: 9 * ms, Event: trace.Arrive, ID: 5, Size: 1000, QueueBytes: 3000},
		{T: 9 * ms, Event: trace.Drop, ID: 5, Size: 1000, QueueBytes: 3000},
		{T: 16 * ms, Event: trace.Depart, ID: 2, Size: 1000, QueueBytes: 1000},
	}
	drained := append(recs, trace.Record{T: 24 * ms, Event: trace.Depart, ID: 3, Size: 1000})
	for _, tc := range []struct {
		name string
		recs []trace.Record
		want string
	}{
		{"drained", drained, "trace differencing: 2 packets entered and never left, 2 of 2 drop records among them (agrees)\n"},
		{"queued at the end", recs, "trace differencing: 3 packets entered and never left, 2 of 2 drop records among them (differs)\n"},
	} {
		var out bytes.Buffer
		if err := run([]string{"-in", writeTrace(t, tc.recs)}, &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, out.String())
		}
	}
}

func TestRunRejectsMissingInput(t *testing.T) {
	for _, args := range [][]string{nil, {"-in", "x.bbtr", "-slot", "0s"}} {
		if err := run(args, &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
}
