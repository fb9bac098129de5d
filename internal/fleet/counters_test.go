package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"badabing/internal/session"
	"badabing/internal/store"
)

// TestViewCountersJSON pins the session JSON's "counters" object byte for
// byte, with and without write failures.
func TestViewCountersJSON(t *testing.T) {
	c := session.Counters{ProbesSent: 10, ProbesLost: 2, PacketsSent: 30, PacketsLost: 5, Experiments: 9, Skipped: 1}
	const clean = `{"probes_sent":10,"probes_lost":2,"packets_sent":30,"packets_lost":5,"experiments":9,"skipped":1}`
	failing := c
	failing.WriteFailures = 7
	for _, tc := range []struct {
		c    session.Counters
		want string
	}{
		{c, clean},
		{failing, clean[:len(clean)-1] + `,"write_failures":7}`},
	} {
		b, err := json.Marshal(View{Counters: tc.c})
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			Counters json.RawMessage `json:"counters"`
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if string(v.Counters) != tc.want {
			t.Errorf("counters JSON\n got %s\nwant %s", v.Counters, tc.want)
		}
	}
}

// failingWrites is a simulated path whose probe socket rejects one write
// per harvest step, counted the way the wire transport's pacer counts.
type failingWrites struct {
	session.Transport
	n atomic.Int64
}

func (f *failingWrites) WriteFailures() int64 { return f.n.Add(1) }

// TestWriteFailuresReachEveryView: a session's write failures show the
// same count in its JSON view, in the registry's lifetime totals and in
// badabingd_wire_write_failures_total.
func TestWriteFailuresReachEveryView(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()
	reg.runOverride = func(ctx context.Context, s *Session, seed int64) error {
		build, err := scenarioOf("idle")
		if err != nil {
			return err
		}
		tr, err := build(s.cfg, seed, s.cfg.slot())
		if err != nil {
			return err
		}
		defer tr.Close()
		return s.measure(ctx, &failingWrites{Transport: tr}, seed)
	}
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{}))
	defer srv.Close()

	var created View
	if code := postJSON(t, srv.URL+"/v1/sessions", `{"scenario":"idle","slots":4000,"step_slots":500,"seed":3}`, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	s, err := reg.Get(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, 10*time.Second); st != Done {
		t.Fatalf("session ended %v, want done", st)
	}
	var v View
	if code := getJSON(t, srv.URL+"/v1/sessions/"+created.ID, &v); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	wf := v.Counters.WriteFailures
	if wf == 0 {
		t.Fatal("the view shows no write failures")
	}
	if got := reg.Totals().WriteFailures; got != wf {
		t.Errorf("Totals().WriteFailures = %d, view shows %d", got, wf)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if got := parsePrometheus(t, buf.String())["badabingd_wire_write_failures_total"]; got != float64(wf) {
		t.Errorf("badabingd_wire_write_failures_total = %v, view shows %d", got, wf)
	}
}

// totalsLog records every lifetime-totals record on its way to the sink.
type totalsLog struct {
	Sink
	mu  sync.Mutex
	got []store.Totals
}

func (l *totalsLog) RegistryTotals(t store.Totals) error {
	l.mu.Lock()
	l.got = append(l.got, t)
	l.mu.Unlock()
	return l.Sink.RegistryTotals(t)
}

// TestResumedSessionTotalsMonotone: a session resumed after a restart
// counts its run from zero, and the lifetime totals advance by that run's
// own progress. They never fall below the restored totals, never
// decrease, and end at the restored totals plus the run's final count.
func TestResumedSessionTotalsMonotone(t *testing.T) {
	log := &totalsLog{Sink: store.NewMem()}
	reg := NewRegistry(Config{MaxConcurrent: 1, Store: log})
	defer reg.Close()
	restored := store.Totals{SessionsCreated: 1, ProbesSent: 1500, PacketsSent: 4500, Experiments: 700}
	sum := reg.Restore(store.RecoveryInfo{
		Sessions: []store.Session{{
			ID:         "s0001",
			ConfigJSON: []byte(`{"scenario":"idle","slots":6000,"step_slots":500,"resume":true}`),
			Seed:       5,
			State:      "running",
			Points:     1,
			LastPoint:  store.Point{SlotsDone: 3000, ProbesSent: 1500, PacketsSent: 4500, Experiments: 700},
		}},
		Totals: restored,
	})
	if sum.Resumed != 1 {
		t.Fatalf("restore summary %+v, want one resumed session", sum)
	}
	s, err := reg.Get("s0001")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, 10*time.Second); st != Done {
		t.Fatalf("resumed session ended %v, want done", st)
	}
	final := s.View().Counters
	if final.ProbesSent == 0 {
		t.Fatal("the resumed run sent no probes")
	}

	log.mu.Lock()
	got := append([]store.Totals(nil), log.got...)
	log.mu.Unlock()
	if len(got) == 0 {
		t.Fatal("no totals were recorded")
	}
	fields := []struct {
		name string
		of   func(store.Totals) int64
		run  int64
	}{
		{"ProbesSent", func(t store.Totals) int64 { return t.ProbesSent }, final.ProbesSent},
		{"PacketsSent", func(t store.Totals) int64 { return t.PacketsSent }, final.PacketsSent},
		{"Experiments", func(t store.Totals) int64 { return t.Experiments }, final.Experiments},
	}
	for _, f := range fields {
		prev := f.of(restored)
		for i, tot := range got {
			cur := f.of(tot)
			if cur < f.of(restored) || cur < prev {
				t.Errorf("record %d: %s = %d after %d, restored %d", i, f.name, cur, prev, f.of(restored))
			}
			prev = cur
		}
		if last, want := f.of(got[len(got)-1]), f.of(restored)+f.run; last != want {
			t.Errorf("final %s = %d, want restored %d + run %d", f.name, last, f.of(restored), f.run)
		}
	}
}

// TestDisableBatchRetired: the create API rejects the retired
// disable_batch field like any unknown field, while an archived config
// that still carries it restores.
func TestDisableBatchRetired(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{}))
	defer srv.Close()
	if code := postJSON(t, srv.URL+"/v1/sessions", `{"scenario":"idle","slots":1000,"disable_batch":true}`, nil); code != http.StatusBadRequest {
		t.Errorf("create with disable_batch: status %d, want %d", code, http.StatusBadRequest)
	}

	cfg := `{"scenario":"wire","target":"127.0.0.1:9","slots":1000,"disable_batch":true}`
	sum := reg.Restore(store.RecoveryInfo{Sessions: []store.Session{{
		ID: "s0007", ConfigJSON: []byte(cfg), Seed: 7, State: "done", Terminal: true,
	}}})
	if sum.Terminal != 1 {
		t.Fatalf("restore summary %+v, want the archived session back as terminal", sum)
	}
	s, err := reg.Get("s0007")
	if err != nil {
		t.Fatal(err)
	}
	if st := s.State(); st != Done {
		t.Errorf("archived session restored %v, want done", st)
	}
}
