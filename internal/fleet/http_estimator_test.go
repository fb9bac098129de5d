package fleet

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/session"
	"badabing/internal/session/wiretransport"
	"badabing/internal/store"
	"badabing/internal/wire"
)

// TestCreateAPIHardeningEstimator pins the create endpoint's contract for
// the "estimator" object: unknown kinds, out-of-range bootstrap tuning,
// wrong-type values and unknown nested fields are all 400s with a JSON
// error body; every registered kind (case-insensitively) is accepted and
// echoed back in both the session config and the snapshot.
func TestCreateAPIHardeningEstimator(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 2})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	bad := []struct {
		name      string
		estimator string // the raw JSON value of the "estimator" key
		wantInErr string
	}{
		{"unknown kind", `{"kind":"fourier"}`, "fourier"},
		{"wrong type", `"bootstrap"`, ""},
		{"unknown nested field", `{"kindd":"basic"}`, "kindd"},
		{"negative resamples", `{"kind":"bootstrap","resamples":-4}`, "resamples"},
		{"huge resamples", `{"kind":"bootstrap","resamples":1073741824}`, "resamples"},
		{"negative block_len", `{"kind":"bootstrap","block_len":-1}`, "block_len"},
		{"level too high", `{"kind":"bootstrap","level":1.5}`, "level"},
		{"level negative", `{"kind":"bootstrap","level":-0.1}`, "level"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			body := fmt.Sprintf(`{"scenario":"idle","slots":100,"estimator":%s}`, tc.estimator)
			status, resp := post(body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", status, resp)
			}
			if !strings.Contains(resp, `"error"`) {
				t.Errorf("error body %q, want {\"error\": ...}", resp)
			}
			if tc.wantInErr != "" && !strings.Contains(resp, tc.wantInErr) {
				t.Errorf("error %q does not name the offending input %q", resp, tc.wantInErr)
			}
		})
	}

	// The unknown-kind error must list the valid kinds — the registry is
	// the single source of truth, and the 400 teaches the caller.
	if _, resp := post(`{"scenario":"idle","slots":100,"estimator":{"kind":"fourier"}}`); !strings.Contains(resp, estimate.DefaultKind) {
		t.Errorf("unknown-kind error %q does not list valid kinds", resp)
	}

	// Every registered kind creates, including case-folded spellings, and
	// the canonical kind appears in the created view's snapshot.
	accepted := append(estimate.Kinds(), "BOOTSTRAP")
	var ids []string
	wantKinds := make(map[string]string) // session id -> canonical kind
	for _, kind := range accepted {
		body := fmt.Sprintf(`{"scenario":"idle","slots":100,"estimator":{"kind":%q}}`, kind)
		var created View
		if code := postJSON(t, srv.URL+"/v1/sessions", body, &created); code != http.StatusCreated {
			t.Fatalf("create kind %q: status %d", kind, code)
		}
		canonical, err := estimate.Normalize(kind)
		if err != nil {
			t.Fatal(err)
		}
		if created.Snapshot.Kind != canonical {
			t.Errorf("kind %q: snapshot kind %q, want %q", kind, created.Snapshot.Kind, canonical)
		}
		if created.Config.Estimator == nil || created.Config.Estimator.Kind != kind {
			t.Errorf("kind %q: config echo %+v, want the submitted spelling", kind, created.Config.Estimator)
		}
		ids = append(ids, created.ID)
		wantKinds[created.ID] = canonical
	}

	// An absent estimator object defaults without surprising the caller.
	var plain View
	if code := postJSON(t, srv.URL+"/v1/sessions", `{"scenario":"idle","slots":100}`, &plain); code != http.StatusCreated {
		t.Fatalf("create without estimator: status %d", code)
	}
	if plain.Snapshot.Kind != estimate.DefaultKind {
		t.Errorf("default snapshot kind %q, want %q", plain.Snapshot.Kind, estimate.DefaultKind)
	}

	// /metrics carries the estimator kind as an info metric per session.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	samples := parsePrometheus(t, buf.String())
	for _, id := range ids {
		key := fmt.Sprintf(`badabingd_session_estimator{session=%q,kind=%q}`, id, wantKinds[id])
		if samples[key] != 1 {
			t.Errorf("info metric %s = %v, want 1\n%s", key, samples[key], buf.String())
		}
	}
}

// TestWireSessionBootstrapEstimator is the acceptance drive for the
// pluggable estimator pipeline: a live wire session created over HTTP
// with a tuned bootstrap estimator streams confidence intervals mid-run,
// its final snapshot is Float64bits-identical to the batch pipeline over
// the collector's own observation log, the CI bounds persist through the
// durable store, and the history endpoint replays byte-for-byte across a
// daemon restart.
func TestWireSessionBootstrapEstimator(t *testing.T) {
	if testing.Short() {
		t.Skip("paces real probes for ~3s")
	}

	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	refl := wire.NewReflector(pc)
	go refl.Run()
	defer refl.Close()

	reg := NewRegistry(Config{MaxConcurrent: 1, Store: st})
	srv := httptest.NewServer(NewHandler(reg))

	const (
		seed       = 77
		slots      = 200
		slotMicros = 10_000
	)
	estCfg := estimate.Config{Kind: estimate.KindBootstrap, Resamples: 120, BlockLen: 25, Level: 0.9, Seed: 5}
	body := fmt.Sprintf(
		`{"scenario":"wire","target":%q,"p":0.3,"slots":%d,"slot_micros":%d,"step_slots":50,"seed":%d,`+
			`"estimator":{"kind":"bootstrap","resamples":120,"block_len":25,"level":0.9,"seed":5}}`,
		refl.Addr().String(), slots, slotMicros, seed)
	var created View
	if code := postJSON(t, srv.URL+"/v1/sessions", body, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.Snapshot.Kind != estimate.KindBootstrap {
		t.Fatalf("created snapshot kind %q, want bootstrap", created.Snapshot.Kind)
	}

	// A live bootstrap session must stream interval estimates while it
	// paces, not only at the end.
	var sawMidRunCI bool
	deadline := time.Now().Add(30 * time.Second)
	var v View
	for time.Now().Before(deadline) {
		if code := getJSON(t, srv.URL+"/v1/sessions/"+created.ID, &v); code != http.StatusOK {
			t.Fatalf("get: status %d", code)
		}
		if v.State == Running && v.Snapshot.FrequencyCI != nil {
			sawMidRunCI = true
		}
		if v.State.Terminal() {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if v.State != Done {
		t.Fatalf("session ended %v (err %q)", v.State, v.Error)
	}
	if !sawMidRunCI {
		t.Error("no mid-run confidence interval observed over the HTTP API")
	}
	final := v.Snapshot
	if final.Kind != estimate.KindBootstrap || final.FrequencyCI == nil {
		t.Fatalf("final snapshot lacks bootstrap CI: %+v", final)
	}
	if final.FrequencyCI.Level != estCfg.Level {
		t.Errorf("CI level %v, want the configured %v", final.FrequencyCI.Level, estCfg.Level)
	}
	if final.Total.M == 0 {
		t.Fatal("final snapshot vacuous: no experiments")
	}

	// Batch cross-check: replay the collector's own observation log
	// through the batch entry point with the identical estimator config.
	// One marking pipeline, one estimator core — the results must agree
	// to the last bit, intervals included.
	s, err := reg.Get(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	wt, ok := s.transport().(*wiretransport.Transport)
	if !ok {
		t.Fatalf("session transport is %T, want *wiretransport.Transport", s.transport())
	}
	slot := time.Duration(slotMicros) * time.Microsecond
	obs, invalid := wt.Observations()
	bySlot := session.MarkSlots(obs, invalid, badabing.RecommendedMarker(0.3, slot))
	plans := badabing.MustSchedule(badabing.ScheduleConfig{P: 0.3, N: slots, Improved: true, Seed: seed})
	batch, _, err := estimate.Batch(estCfg, badabing.StreamConfig{Slot: slot}, plans, bySlot)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Total.M != final.Total.M {
		t.Fatalf("batch m %d, session m %d", batch.Total.M, final.Total.M)
	}
	bitsEq := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s diverged: batch %v (%x), session %v (%x)",
				name, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	bitsEq("frequency", batch.Total.Frequency, final.Total.Frequency)
	if batch.Total.HasDuration != final.Total.HasDuration {
		t.Errorf("duration presence diverged: batch %v, session %v", batch.Total.HasDuration, final.Total.HasDuration)
	} else if batch.Total.HasDuration {
		bitsEq("duration", batch.Total.Duration, final.Total.Duration)
	}
	if batch.FrequencyCI == nil {
		t.Fatal("batch pipeline produced no frequency CI")
	}
	bitsEq("frequency CI lo", batch.FrequencyCI.Lo, final.FrequencyCI.Lo)
	bitsEq("frequency CI hi", batch.FrequencyCI.Hi, final.FrequencyCI.Hi)
	if (batch.DurationCI == nil) != (final.DurationCI == nil) {
		t.Errorf("duration CI presence diverged: batch %v, session %v", batch.DurationCI, final.DurationCI)
	} else if batch.DurationCI != nil {
		bitsEq("duration CI lo", batch.DurationCI.Lo, final.DurationCI.Lo)
		bitsEq("duration CI hi", batch.DurationCI.Hi, final.DurationCI.Hi)
	}

	// The persisted series carries the CI bounds.
	history := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("history: status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := history(srv.URL + "/v1/sessions/" + created.ID + "/history")
	if !bytes.Contains(before, []byte(`"has_freq_ci":true`)) {
		t.Errorf("persisted history carries no CI bounds:\n%s", before)
	}

	// Restart the daemon: close everything, recover from the WAL, and the
	// history must replay byte-for-byte; the restored session keeps its
	// estimator kind and interval bounds.
	srv.Close()
	reg.Close() // closes the store

	st2, info, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry(Config{MaxConcurrent: 1, Store: st2})
	defer reg2.Close()
	reg2.Restore(info)
	srv2 := httptest.NewServer(NewHandler(reg2))
	defer srv2.Close()

	after := history(srv2.URL + "/v1/sessions/" + created.ID + "/history")
	if !bytes.Equal(before, after) {
		t.Fatalf("history changed across restart:\nbefore %s\nafter  %s", before, after)
	}
	var restored View
	if code := getJSON(t, srv2.URL+"/v1/sessions/"+created.ID, &restored); code != http.StatusOK {
		t.Fatalf("get restored: status %d", code)
	}
	if restored.State != Done || !restored.Recovered {
		t.Errorf("restored session state %v recovered %v, want done/true", restored.State, restored.Recovered)
	}
	if restored.Snapshot.Kind != estimate.KindBootstrap {
		t.Errorf("restored snapshot kind %q, want bootstrap", restored.Snapshot.Kind)
	}
	if restored.Snapshot.FrequencyCI == nil {
		t.Fatal("restored snapshot lost its frequency CI")
	}
	bitsEq("restored CI lo", final.FrequencyCI.Lo, restored.Snapshot.FrequencyCI.Lo)
	bitsEq("restored CI hi", final.FrequencyCI.Hi, restored.Snapshot.FrequencyCI.Hi)
	if restored.Snapshot.FrequencyCI.Level != estCfg.Level {
		t.Errorf("restored CI level %v, want %v", restored.Snapshot.FrequencyCI.Level, estCfg.Level)
	}
}
