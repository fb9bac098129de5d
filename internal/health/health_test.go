package health

import (
	"log/slog"
	"strings"
	"testing"
	"time"

	"badabing/internal/obs"
)

// TestMonitorAggregation: the daemon state is the worst component
// state, and recovery propagates back down.
func TestMonitorAggregation(t *testing.T) {
	m := NewMonitor(nil)
	if got := m.State(); got != Ok {
		t.Fatalf("empty monitor state = %v, want ok", got)
	}
	m.Set("store", Ok, "")
	m.Set("resources", Ok, "")
	if got := m.State(); got != Ok {
		t.Fatalf("state = %v, want ok", got)
	}
	m.Set("store", Degraded, "breaker open")
	if got := m.State(); got != Degraded {
		t.Fatalf("state = %v, want degraded", got)
	}
	m.Set("resources", Failing, "goroutines 2x budget")
	if got := m.State(); got != Failing {
		t.Fatalf("state = %v, want failing (worst component wins)", got)
	}
	m.Set("resources", Ok, "")
	if got := m.State(); got != Degraded {
		t.Fatalf("state = %v, want degraded (store still open)", got)
	}
	m.Set("store", Ok, "")
	if got := m.State(); got != Ok {
		t.Fatalf("state = %v, want ok after full recovery", got)
	}

	snap := m.Snapshot()
	if snap.State != Ok || len(snap.Components) != 2 {
		t.Fatalf("snapshot = %+v, want ok with 2 components", snap)
	}
	if snap.Components["store"].Reason != "" {
		t.Fatalf("ok component kept reason %q", snap.Components["store"].Reason)
	}
}

// TestMonitorLogsOncePerTransition: re-reporting the same state is
// silent; each change logs exactly one component line.
func TestMonitorLogsOncePerTransition(t *testing.T) {
	var sb strings.Builder
	m := NewMonitor(slog.New(slog.NewTextHandler(&sb, nil)))
	for i := 0; i < 5; i++ {
		m.Set("store", Degraded, "disk full")
	}
	if m.Transitions() != 1 {
		t.Fatalf("transitions = %d, want 1 (flapping samples must not count)", m.Transitions())
	}
	var componentLines int
	for _, l := range strings.Split(sb.String(), "\n") {
		if strings.Contains(l, "component=store") {
			componentLines++
		}
	}
	lines := sb.String()
	if componentLines != 1 {
		t.Fatalf("logged %d store lines (%q), want exactly 1", componentLines, lines)
	}
	m.Set("store", Ok, "")
	if m.Transitions() != 2 {
		t.Fatalf("transitions = %d, want 2 after recovery", m.Transitions())
	}
}

// TestMonitorSince: Since restamps only on state changes.
func TestMonitorSince(t *testing.T) {
	m := NewMonitor(nil)
	now := time.Unix(1000, 0)
	m.setNow(func() time.Time { return now })
	m.Set("store", Degraded, "x")
	first := m.Snapshot().Components["store"].Since
	now = now.Add(time.Minute)
	m.Set("store", Degraded, "still x")
	if got := m.Snapshot().Components["store"].Since; !got.Equal(first) {
		t.Fatalf("Since restamped on a same-state report: %v -> %v", first, got)
	}
	m.Set("store", Ok, "")
	if got := m.Snapshot().Components["store"].Since; !got.Equal(now) {
		t.Fatalf("Since not restamped on transition: %v, want %v", got, now)
	}
}

// TestWatchdogBudgets drives scripted usage through every grade:
// under budget, over (degraded), over the failing multiple, and back.
func TestWatchdogBudgets(t *testing.T) {
	m := NewMonitor(nil)
	w := NewWatchdog(m, Budgets{MaxGoroutines: 100, MaxFDs: 50, MaxHeapBytes: 1 << 20}, time.Hour)
	u := Usage{Goroutines: 10, OpenFDs: 10, HeapBytes: 1 << 10}
	w.setSample(func() Usage { return u })

	cases := []struct {
		name string
		u    Usage
		want State
	}{
		{"under", Usage{Goroutines: 99, OpenFDs: 49, HeapBytes: 1 << 19}, Ok},
		{"at budget", Usage{Goroutines: 100, OpenFDs: 50, HeapBytes: 1 << 20}, Ok},
		{"goroutines over", Usage{Goroutines: 101, OpenFDs: 10, HeapBytes: 1}, Degraded},
		{"fds over", Usage{Goroutines: 10, OpenFDs: 51, HeapBytes: 1}, Degraded},
		{"heap over", Usage{Goroutines: 10, OpenFDs: 10, HeapBytes: 1<<20 + 1}, Degraded},
		{"goroutines 2x", Usage{Goroutines: 200, OpenFDs: 10, HeapBytes: 1}, Failing},
		{"unknown fds ignored", Usage{Goroutines: 10, OpenFDs: -1, HeapBytes: 1}, Ok},
		{"recovered", Usage{Goroutines: 10, OpenFDs: 10, HeapBytes: 1}, Ok},
	}
	for _, tc := range cases {
		u = tc.u
		if got := w.Check(); got != tc.want {
			t.Errorf("%s: Check() = %v, want %v", tc.name, got, tc.want)
		}
		if got := m.Snapshot().Components[Component].State; got != tc.want {
			t.Errorf("%s: monitor component = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := w.Last(); got != cases[len(cases)-1].u {
		t.Errorf("Last() = %+v, want the final sample", got)
	}
}

// TestWatchdogZeroBudgetsDisabled: a dimension without a budget never
// breaches, whatever its usage.
func TestWatchdogZeroBudgetsDisabled(t *testing.T) {
	m := NewMonitor(nil)
	w := NewWatchdog(m, Budgets{}, time.Hour)
	w.setSample(func() Usage {
		return Usage{Goroutines: 1 << 20, OpenFDs: 1 << 20, HeapBytes: 1 << 40}
	})
	if got := w.Check(); got != Ok {
		t.Fatalf("Check() with no budgets = %v, want ok", got)
	}
}

// TestWatchdogLiveSample: the real sampler returns plausible values on
// this platform, and Start/Stop does not leak its ticker goroutine.
func TestWatchdogLiveSample(t *testing.T) {
	m := NewMonitor(nil)
	w := NewWatchdog(m, Budgets{MaxGoroutines: 1 << 20}, time.Millisecond)
	w.Start()
	time.Sleep(10 * time.Millisecond)
	w.Stop()
	u := w.Last()
	if u.Goroutines <= 0 {
		t.Errorf("sampled %d goroutines, want > 0", u.Goroutines)
	}
	if u.HeapBytes == 0 {
		t.Errorf("sampled 0 heap bytes")
	}
	// /proc/self/fd exists on Linux; elsewhere the count is -1 (unknown).
	if n := CountFDs(); n == 0 {
		t.Errorf("CountFDs() = 0, want > 0 or -1")
	}
	if got := m.State(); got != Ok {
		t.Errorf("live sample state = %v, want ok", got)
	}
}

// TestWatchdogMetrics: the exposition contains each gauge family.
func TestWatchdogMetrics(t *testing.T) {
	m := NewMonitor(nil)
	w := NewWatchdog(m, Budgets{MaxGoroutines: 10}, time.Hour)
	w.setSample(func() Usage { return Usage{Goroutines: 42, OpenFDs: 7, HeapBytes: 1234} })
	w.Check()
	o := obs.NewRegistry()
	w.RegisterMetrics(o)
	m.RegisterMetrics(o)
	var sb strings.Builder
	if err := o.Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"badabingd_watchdog_goroutines 42",
		"badabingd_watchdog_open_fds 7",
		"badabingd_watchdog_heap_bytes 1234",
		"badabingd_health_state 2",
		`badabingd_health_component{component="resources"} 2`,
		"badabingd_health_transitions_total 1",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, sb.String())
		}
	}

	// open_fds disappears (never renders a stale sample) when the
	// platform cannot count descriptors.
	w.setSample(func() Usage { return Usage{Goroutines: 42, OpenFDs: -1, HeapBytes: 1234} })
	w.Check()
	sb.Reset()
	if err := o.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "badabingd_watchdog_open_fds") {
		t.Errorf("open_fds rendered without a count:\n%s", sb.String())
	}
}
