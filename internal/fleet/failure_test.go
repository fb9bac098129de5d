package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/chaos"
)

// TestWireSessionRetriesToDone: a wire session created while its
// reflector is down fails the liveness handshake, re-queues under the
// retry policy with backoff, and completes once the reflector restarts —
// with the retry count surfaced in the session view and /metrics.
func TestWireSessionRetriesToDone(t *testing.T) {
	if testing.Short() {
		t.Skip("paces real probes and retry backoffs for seconds")
	}
	fr := chaos.NewFlakyReflector(chaos.Fault{}, chaos.Fault{}, 41)
	if err := fr.Start(); err != nil {
		t.Fatal(err)
	}
	addr := fr.Addr().String()
	fr.Kill() // down at session start: the first attempt must fail fast
	defer fr.Kill()

	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{}))
	defer srv.Close()

	body := fmt.Sprintf(
		`{"scenario":"wire","target":%q,"p":0.3,"slots":150,"slot_micros":10000,"step_slots":50,"seed":41,"max_retries":4,"retry_backoff_millis":200}`,
		addr)
	var created View
	if code := postJSON(t, srv.URL+"/v1/sessions", body, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	// Bring the far end back while the first attempt is still failing.
	go func() {
		time.Sleep(1200 * time.Millisecond)
		if err := fr.Start(); err != nil {
			t.Errorf("reflector restart: %v", err)
		}
	}()

	deadline := time.Now().Add(60 * time.Second)
	var v View
	for {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %v (retries %d, err %q)", v.State, v.Retries, v.Error)
		}
		if code := getJSON(t, srv.URL+"/v1/sessions/"+created.ID, &v); code != http.StatusOK {
			t.Fatalf("get: status %d", code)
		}
		if v.State.Terminal() {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if v.State != Done {
		t.Fatalf("session ended %v (err %q), want done after retries", v.State, v.Error)
	}
	if v.Retries == 0 {
		t.Fatal("session completed without recording any retries")
	}
	if v.Counters.ProbesSent == 0 {
		t.Fatalf("no probes accounted after retry: %+v", v.Counters)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	samples := parsePrometheus(t, buf.String())
	if samples["badabingd_session_retries_total"] < 1 {
		t.Errorf("session_retries_total = %v, want >= 1", samples["badabingd_session_retries_total"])
	}
}

// TestWireSessionDegradedOnDeadPath: the reflector blackholes mid-run and
// never comes back; with no retry budget the session must go Degraded —
// partial estimates from the alive window, zero loss frequency (the path
// was clean while alive), never a fake loss episode.
func TestWireSessionDegradedOnDeadPath(t *testing.T) {
	if testing.Short() {
		t.Skip("paces real probes for seconds")
	}
	fr := chaos.NewFlakyReflector(chaos.Fault{}, chaos.Fault{}, 43)
	if err := fr.Start(); err != nil {
		t.Fatal(err)
	}
	defer fr.Kill()

	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()

	s, err := reg.Create(SessionConfig{
		Scenario:   "wire",
		Target:     fr.Addr().String(),
		P:          0.3,
		Slots:      3000, // 30s horizon; the watchdog must cut it short
		SlotMicros: 10_000,
		StepSlots:  50,
		Seed:       43,
	})
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(1500 * time.Millisecond)
		fr.Hang()
	}()

	deadline := time.Now().Add(25 * time.Second)
	for !s.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %v", s.State())
		}
		time.Sleep(50 * time.Millisecond)
	}
	v := s.View()
	if v.State != Degraded {
		t.Fatalf("session ended %v (err %q), want degraded", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "dead") {
		t.Errorf("degraded session error does not name the dead path: %q", v.Error)
	}
	if v.Counters.ProbesSent == 0 {
		t.Fatal("degraded session published no pre-outage counters")
	}
	if v.Counters.ProbesLost != 0 {
		t.Errorf("outage leaked into counters as %d lost probes", v.Counters.ProbesLost)
	}
	if f := v.Snapshot.Total.Frequency; f != 0 {
		t.Errorf("outage reported as loss frequency %v", f)
	}

	// Degraded is terminal: deletable, counted in its own metrics state.
	if err := reg.Delete(s.ID); err != nil {
		t.Fatalf("deleting degraded session: %v", err)
	}
}

// createCases are malformed or invalid create bodies and the status each
// gets; they also seed FuzzCreateSession.
var createCases = []struct {
	name string
	body string
	want int
}{
	{"malformed JSON", `{"scenario":`, http.StatusBadRequest},
	{"unknown field", `{"scenario":"cbr","bogus":1}`, http.StatusBadRequest},
	{"wrong type", `{"slots":"many"}`, http.StatusBadRequest},
	{"unknown scenario", `{"scenario":"teleport"}`, http.StatusBadRequest},
	{"wire without target", `{"scenario":"wire"}`, http.StatusBadRequest},
	{"probability out of range", `{"p":1.5}`, http.StatusBadRequest},
	{"slots above the cap", fmt.Sprintf(`{"slots":%d}`, badabing.MaxSlots+1), http.StatusBadRequest},
	{"negative retries", `{"max_retries":-1}`, http.StatusBadRequest},
	{"negative retry backoff", `{"max_retries":1,"retry_backoff_millis":-5}`, http.StatusBadRequest},
	// Durations that do not fit in int64 nanoseconds.
	{"slot width overflows", `{"scenario":"idle","slots":1000,"slot_micros":10000000000000000}`, http.StatusBadRequest},
	{"horizon overflows", `{"scenario":"idle","slots":1000000,"slot_micros":10000000000}`, http.StatusBadRequest},
	{"step overflows", `{"scenario":"idle","slots":1000,"step_slots":4611686018427387904}`, http.StatusBadRequest},
	{"step delay overflows", `{"scenario":"idle","step_delay_micros":10000000000000000}`, http.StatusBadRequest},
	{"retry backoff overflows", `{"scenario":"idle","max_retries":1,"retry_backoff_millis":10000000000000}`, http.StatusBadRequest},
	// 2^54 ns slots: the horizon and the step fit, but the loop clock
	// wraps on the step after 7.2e18 ns.
	{"loop clock overflows", `{"scenario":"idle","slots":400,"slot_micros":18014398509481,"step_slots":200}`, http.StatusBadRequest},
	{"oversized body", `{"name":"` + strings.Repeat("x", 2<<20) + `"}`, http.StatusRequestEntityTooLarge},
}

// TestCreateAPIHardening: every malformed or invalid create is a client
// error — never a 500 — oversized bodies are cut off, and a draining
// registry answers 503.
func TestCreateAPIHardening(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{}))
	defer srv.Close()

	for _, tc := range createCases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if resp.StatusCode >= 500 {
				t.Fatalf("server error %d for a client mistake", resp.StatusCode)
			}
		})
	}

	// A draining registry refuses new sessions with 503.
	if !reg.Drain(time.Second) {
		t.Fatal("empty registry failed to drain")
	}
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":"cbr"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining registry answered %d, want 503", resp.StatusCode)
	}
	if !reg.Draining() {
		t.Fatal("Draining() false after Drain")
	}
}

// TestRetryOverrideBackoff exercises the retry loop without a wire path:
// a run override that fails twice then succeeds must leave the session
// Done with two recorded retries; a cancelled session must never retry.
func TestRetryOverrideBackoff(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()
	attempts := make(chan int, 8)
	n := 0
	reg.runOverride = func(ctx context.Context, s *Session, seed int64) error {
		n++
		attempts <- n
		if n < 3 {
			return fmt.Errorf("transient failure %d", n)
		}
		return nil
	}
	s, err := reg.Create(SessionConfig{MaxRetries: 5, RetryBackoffMillis: 10})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !s.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %v", s.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.State(); got != Done {
		t.Fatalf("state %v, want done (err %v)", got, s.View().Error)
	}
	if got := s.View().Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if got := reg.Totals().SessionRetries; got != 2 {
		t.Fatalf("totals.SessionRetries = %d, want 2", got)
	}

	// Exhausted budget: persistent failure ends Failed with MaxRetries
	// recorded.
	n = 0
	reg.runOverride = func(ctx context.Context, s *Session, seed int64) error {
		return fmt.Errorf("always broken")
	}
	s2, err := reg.Create(SessionConfig{MaxRetries: 2, RetryBackoffMillis: 5})
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for !s2.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %v", s2.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s2.State(); got != Failed {
		t.Fatalf("state %v, want failed", got)
	}
	if got := s2.View().Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}
