package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/lab"
	"badabing/internal/probe"
	"badabing/internal/session"
)

// postJSON posts a JSON body and decodes the JSON response into out.
func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitTerminal polls until the session reaches a terminal state.
func waitTerminal(t *testing.T, s *Session, within time.Duration) State {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := s.State()
		if st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %v", s.ID, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetConcurrentSessionsOverHTTP is the acceptance drive: nine
// simulated-path sessions run concurrently on a bounded pool, snapshots
// are observable mid-run through the HTTP API, every session completes,
// and /metrics parses as Prometheus text.
func TestFleetConcurrentSessionsOverHTTP(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 4})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	// 15 s of virtual time in 1 s harvest steps, throttled 5 ms of real
	// time per step so mid-run state is observable.
	const nSessions = 9
	var ids []string
	for i := 0; i < nSessions; i++ {
		scenario := "idle"
		if i%3 == 0 {
			scenario = "cbr"
		}
		body := fmt.Sprintf(`{"name":"sess-%d","scenario":%q,"slots":3000,"step_slots":200,"step_delay_micros":5000,"seed":%d}`,
			i, scenario, i+1)
		var view View
		if code := postJSON(t, srv.URL+"/v1/sessions", body, &view); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		if view.State.Terminal() {
			t.Fatalf("session %s terminal at creation", view.ID)
		}
		ids = append(ids, view.ID)
	}

	// Observe at least one snapshot mid-run: a session that is still
	// running (slots_done below the horizon) with experiments already
	// estimated.
	sawMidRun := false
	deadline := time.Now().Add(30 * time.Second)
	for !sawMidRun && time.Now().Before(deadline) {
		for _, id := range ids {
			var view View
			if code := getJSON(t, srv.URL+"/v1/sessions/"+id, &view); code != http.StatusOK {
				t.Fatalf("get %s: status %d", id, code)
			}
			if view.State == Running && view.SlotsDone < view.Config.Slots && view.Snapshot.Total.M > 0 {
				sawMidRun = true
				break
			}
		}
	}
	if !sawMidRun {
		t.Fatal("never observed a mid-run snapshot with M > 0 via the API")
	}

	// Every session completes.
	for _, id := range ids {
		s, err := reg.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, s, 60*time.Second); st != Done {
			t.Fatalf("session %s finished %v (err %v)", id, st, s.Err())
		}
	}

	// Completed sessions report full progress and real probe traffic.
	var list struct {
		Sessions []View `json:"sessions"`
	}
	if code := getJSON(t, srv.URL+"/v1/sessions", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Sessions) != nSessions {
		t.Fatalf("listed %d sessions, want %d", len(list.Sessions), nSessions)
	}
	for _, v := range list.Sessions {
		if v.SlotsDone != v.Config.Slots {
			t.Errorf("%s: slots_done %d of %d", v.ID, v.SlotsDone, v.Config.Slots)
		}
		if v.Counters.ProbesSent == 0 || v.Counters.PacketsSent == 0 {
			t.Errorf("%s: no probe traffic counted: %+v", v.ID, v.Counters)
		}
		if v.Snapshot.Total.M == 0 {
			t.Errorf("%s: no experiments in final snapshot", v.ID)
		}
	}

	// /metrics parses and reflects the fleet.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	samples := parsePrometheus(t, buf.String())
	if got := samples[`badabingd_sessions{state="done"}`]; got != nSessions {
		t.Errorf("done sessions metric = %v, want %d\n%s", got, nSessions, buf.String())
	}
	if samples["badabingd_probes_sent_total"] <= 0 {
		t.Error("probes_sent_total not positive")
	}
	if samples["badabingd_sessions_created_total"] != nSessions {
		t.Errorf("sessions_created_total = %v", samples["badabingd_sessions_created_total"])
	}
	found := false
	for key := range samples {
		if strings.HasPrefix(key, "badabingd_session_loss_frequency{session=") {
			found = true
		}
	}
	if !found {
		t.Error("no per-session frequency gauge exposed")
	}
}

// sampleRe matches one exposition-format sample line.
var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^{}]*\})?) ([^ ]+)$`)

// parsePrometheus validates text exposition format strictly enough to
// catch malformed families and returns sample values keyed by
// name{labels}.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("malformed comment line %q", line)
			}
			if parts[1] == "TYPE" {
				switch parts[3] {
				case "counter", "gauge":
					typed[parts[2]] = true
				case "histogram":
					// Histogram samples append _bucket/_sum/_count to
					// the family name.
					typed[parts[2]+"_bucket"] = true
					typed[parts[2]+"_sum"] = true
					typed[parts[2]+"_count"] = true
				default:
					t.Fatalf("unknown metric type in %q", line)
				}
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := m[1]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !typed[name] {
			t.Fatalf("sample %q precedes its TYPE header", line)
		}
		samples[m[1]] = v
	}
	return samples
}

// TestSessionStopDeleteLifecycle exercises stop, delete-running conflict
// and delete-after-stop over the HTTP API.
func TestSessionStopDeleteLifecycle(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 2})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	// A session long enough (real time) to still be running when we act:
	// 100 steps of 1 ms.
	var view View
	body := `{"scenario":"idle","slots":10000,"step_slots":100,"step_delay_micros":1000}`
	if code := postJSON(t, srv.URL+"/v1/sessions", body, &view); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	id := view.ID

	// Deleting a non-terminal session conflicts.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete running: status %d, want 409", resp.StatusCode)
	}

	if code := postJSON(t, srv.URL+"/v1/sessions/"+id+"/stop", "", &view); code != http.StatusOK {
		t.Fatalf("stop: status %d", code)
	}
	s, err := reg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, 30*time.Second); st != Stopped {
		t.Fatalf("state after stop = %v", st)
	}

	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete stopped: status %d, want 204", resp.StatusCode)
	}
	if code := getJSON(t, srv.URL+"/v1/sessions/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("get deleted: status %d, want 404", code)
	}
}

// TestSessionPanicIsolation: a panicking session fails alone; the
// registry and its other sessions keep working.
func TestSessionPanicIsolation(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 2})
	defer reg.Close()
	reg.runOverride = func(ctx context.Context, s *Session, seed int64) error {
		if s.cfg.Name == "boom" {
			panic("synthetic session crash")
		}
		return nil
	}
	bad, err := reg.Create(SessionConfig{Name: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	good, err := reg.Create(SessionConfig{Name: "fine"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, bad, 10*time.Second); st != Failed {
		t.Fatalf("panicking session state %v, want failed", st)
	}
	if err := bad.Err(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not surfaced: %v", err)
	}
	if st := waitTerminal(t, good, 10*time.Second); st != Done {
		t.Fatalf("healthy session state %v (err %v)", st, good.Err())
	}
}

// TestCreateValidation: the API rejects bad requests instead of crashing
// the daemon.
func TestCreateValidation(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	for _, body := range []string{
		`{"p": 1.5}`,                // probability out of range
		`{"p": -0.1}`,               // negative probability
		`{"slots": -5}`,             // negative horizon
		`{"extended_fraction": 2}`,  // fraction out of range
		`{"scenario": "teleport"}`,  // unknown scenario
		`{"step_delay_micros": -1}`, // negative delay
		`{"bogus_field": true}`,     // unknown field
		`{"p": `,                    // broken JSON
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, srv.URL+"/v1/sessions", body, &e); code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, code)
		} else if e.Error == "" {
			t.Errorf("body %s: no error message", body)
		}
	}
	if got := len(reg.List()); got != 0 {
		t.Fatalf("%d sessions registered from invalid requests", got)
	}

	// An explicit extended_fraction of 0 is valid and means "no extended
	// experiments" (the zero-value footgun fix, end to end).
	var view View
	code := postJSON(t, srv.URL+"/v1/sessions",
		`{"scenario":"idle","slots":2000,"extended_fraction":0,"seed":3}`, &view)
	if code != http.StatusCreated {
		t.Fatalf("extended_fraction 0 rejected: %d", code)
	}
	if view.Config.ExtendedFraction == nil || *view.Config.ExtendedFraction != 0 {
		t.Fatalf("extended_fraction not preserved: %+v", view.Config.ExtendedFraction)
	}
}

// TestRegistryFull: MaxSessions is enforced with 429 over the API.
func TestRegistryFull(t *testing.T) {
	reg := NewRegistry(Config{MaxSessions: 2, MaxConcurrent: 1})
	defer reg.Close()
	reg.runOverride = func(ctx context.Context, s *Session, seed int64) error {
		<-ctx.Done()
		return ctx.Err()
	}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	for i := 0; i < 2; i++ {
		if code := postJSON(t, srv.URL+"/v1/sessions", `{"scenario":"idle"}`, nil); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
	}
	if code := postJSON(t, srv.URL+"/v1/sessions", `{"scenario":"idle"}`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("create over cap: status %d, want 429", code)
	}
}

// TestFinalSnapshotMatchesBatch: a completed session's total estimates
// are exactly what the batch pipeline computes over the same path — the
// streaming path adds no drift.
func TestFinalSnapshotMatchesBatch(t *testing.T) {
	cfg := SessionConfig{Scenario: "cbr", Slots: 3000, Seed: 5}
	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()
	s, err := reg.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, 60*time.Second); st != Done {
		t.Fatalf("session state %v (err %v)", st, s.Err())
	}
	got := s.Snapshot().Total

	// Replay the identical run through the batch pipeline.
	full := s.Config() // defaults applied
	slot := time.Duration(full.SlotMicros) * time.Microsecond
	plans := badabing.MustSchedule(full.scheduleConfig(full.Seed))
	sim, d := labScenario(lab.CBRUniform)(full.Seed + 1)
	bb := probe.StartBadabing(sim, d.Bottleneck, d.FwdDemux, probeFlowID, probe.BadabingConfig{Slot: slot}, badabing.ProbeSlots(plans))
	sim.Run(time.Duration(full.Slots)*slot + session.DefaultSettle)
	bySlot := session.MarkSlots(bb.Observations(), nil, badabing.RecommendedMarker(full.P, slot))
	batch, _, err := estimate.Batch(estimate.Config{}, badabing.StreamConfig{Slot: slot}, plans, bySlot)
	if err != nil {
		t.Fatal(err)
	}
	want := batch.Total
	if got != want {
		t.Fatalf("final snapshot diverged from batch:\n got %+v\nwant %+v", got, want)
	}
	if got.M == 0 {
		t.Fatal("batch comparison vacuous: no experiments")
	}
}

// TestRegistryCloseStopsSessions: Close cancels in-flight sessions and
// returns once they have wound down.
func TestRegistryCloseStopsSessions(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 2})
	for i := 0; i < 3; i++ {
		_, err := reg.Create(SessionConfig{
			Scenario: "idle", Slots: 50_000, StepSlots: 100, StepDelayMicros: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		reg.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	for _, s := range reg.List() {
		if st := s.State(); !st.Terminal() {
			t.Errorf("session %s state %v after Close", s.ID, st)
		}
	}
	if _, err := reg.Create(SessionConfig{Scenario: "idle"}); err == nil {
		t.Error("Create accepted after Close")
	}
}
