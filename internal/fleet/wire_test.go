package fleet

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/session/wiretransport"
	"badabing/internal/wire"
)

// TestWireSessionEndToEnd drives the daemon's "wire" scenario over a real
// UDP loopback path through the HTTP API: a reflector echoes the probe
// stream, mid-run snapshots appear while the session paces, and the final
// snapshot is exactly what batch estimation over the collector's
// observation log reports.
func TestWireSessionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("paces real probes for ~3s")
	}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	refl := wire.NewReflector(pc)
	go refl.Run()
	defer refl.Close()

	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{}))
	defer srv.Close()

	const (
		seed       = 77
		slots      = 200
		slotMicros = 10_000
	)
	body := fmt.Sprintf(
		`{"scenario":"wire","target":%q,"p":0.3,"slots":%d,"slot_micros":%d,"step_slots":50,"seed":%d}`,
		refl.Addr().String(), slots, slotMicros, seed)
	var created View
	if code := postJSON(t, srv.URL+"/v1/sessions", body, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	// Poll the API while the session paces; a live wire session must
	// publish snapshots mid-run, not only at the end.
	var sawMidRun bool
	deadline := time.Now().Add(30 * time.Second)
	var v View
	for time.Now().Before(deadline) {
		if code := getJSON(t, srv.URL+"/v1/sessions/"+created.ID, &v); code != http.StatusOK {
			t.Fatalf("get: status %d", code)
		}
		if v.State == Running && v.SlotsDone > 0 && v.SlotsDone < slots {
			sawMidRun = true
		}
		if v.State.Terminal() {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if v.State != Done {
		t.Fatalf("session ended %v (err %q)", v.State, v.Error)
	}
	if !sawMidRun {
		t.Error("no mid-run snapshot observed over the HTTP API")
	}
	if v.SlotsDone != slots {
		t.Errorf("SlotsDone = %d, want %d", v.SlotsDone, slots)
	}
	if v.Counters.ProbesSent == 0 || v.Counters.PacketsSent == 0 {
		t.Fatalf("no probes accounted: %+v", v.Counters)
	}
	if got := refl.Packets(); got == 0 {
		t.Fatal("reflector saw no packets")
	}

	// The final snapshot must match batch estimation over the very same
	// observation log the collector kept — one marking pipeline, two
	// consumers.
	s, err := reg.Get(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	wt, ok := s.transport().(*wiretransport.Transport)
	if !ok {
		t.Fatalf("session transport is %T, want *wiretransport.Transport", s.transport())
	}
	slot := time.Duration(slotMicros) * time.Microsecond
	marker := badabing.RecommendedMarker(0.3, slot)
	batch, _, err := wt.Collector().Estimate(wt.ExpID(), marker, estimate.Config{})
	if err != nil {
		t.Fatalf("collector estimate: %v", err)
	}
	want := batch.Total
	if got := v.Snapshot.Total; got != want {
		t.Fatalf("final snapshot diverged from the collector's batch estimate:\n got %+v\nwant %+v", got, want)
	}
	if want.M == 0 {
		t.Fatal("batch comparison vacuous: no experiments")
	}

	// The aggregate /metrics counters must have absorbed the session.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	samples := parsePrometheus(t, buf.String())
	if samples["badabingd_probes_sent_total"] != float64(v.Counters.ProbesSent) {
		t.Errorf("probes_sent_total = %v, want %d", samples["badabingd_probes_sent_total"], v.Counters.ProbesSent)
	}
	if samples["badabingd_sessions_finished_total"] != 1 {
		t.Errorf("sessions_finished_total = %v, want 1", samples["badabingd_sessions_finished_total"])
	}
}
