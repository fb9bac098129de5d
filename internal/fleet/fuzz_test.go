package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"badabing/internal/store"
)

// noRun is a session body that measures nothing.
func noRun(context.Context, *Session, int64) error { return nil }

// FuzzCreateSession drives POST /v1/sessions with arbitrary bodies on a
// registry whose sessions measure nothing. No body may panic or get a
// 5xx. The spec of every 201 must pass session.Config.Validate, and the
// config archived for it must decode through restore's decoder, and pass
// restore's validation, to the config the 201 shows.
func FuzzCreateSession(f *testing.F) {
	for _, tc := range createCases {
		f.Add(tc.body)
	}
	f.Add(`{}`)
	f.Add(`{"scenario":"idle","slots":100,"extended_fraction":0,"estimator":{"kind":"bootstrap","resamples":10}}`)
	f.Add(`{"scenario":"wire","target":"127.0.0.1:9","slot_micros":1000,"window_slots":50,"resume":true}`)
	f.Fuzz(func(t *testing.T, body string) {
		mem := store.NewMem()
		reg := NewRegistry(Config{MaxConcurrent: 1, Store: mem})
		reg.runOverride = noRun
		defer reg.Close()
		rec := httptest.NewRecorder()
		NewHandlerOpts(reg, HandlerOptions{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusCreated {
			return
		}
		var v View
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		if err := v.Config.sessionConfig(v.Config.Seed).Validate(); err != nil {
			t.Fatalf("%q created a session whose spec fails validation: %v", body, err)
		}
		var archived []byte
		for _, s := range mem.Sessions() {
			if s.ID == v.ID {
				archived = s.ConfigJSON
			}
		}
		restored, err := archivedConfig(archived)
		if err != nil {
			t.Fatalf("%q: archived config %s does not restore: %v", body, archived, err)
		}
		if !reflect.DeepEqual(restored, v.Config) {
			t.Fatalf("%q: archived config restores to %+v, the 201 shows %+v", body, restored, v.Config)
		}
	})
}

// FuzzHistoryQuery drives GET /v1/sessions/{id}/history with arbitrary
// from and to bounds over a session with ten archived points. Each answer
// is a 400 exactly when a bound does not parse, or else a 200 whose points
// are in time order and inside the bounds; an empty bound is open.
func FuzzHistoryQuery(f *testing.F) {
	mem := store.NewMem()
	reg := NewRegistry(Config{MaxConcurrent: 1, Store: mem})
	reg.runOverride = noRun
	f.Cleanup(reg.Close)
	s, err := reg.Create(SessionConfig{Scenario: "idle"})
	if err != nil {
		f.Fatal(err)
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		mem.SessionPoint(s.ID, store.Point{At: base.Add(time.Duration(i) * time.Hour).UnixNano(), SlotsDone: int64(i)})
	}
	h := NewHandlerOpts(reg, HandlerOptions{})

	f.Add("", "")
	f.Add("2026-01-01T03:00:00Z", "2026-01-01T06:30:00Z")
	f.Add("2026-01-01T05:00:00Z", "2026-01-01T01:00:00Z")
	f.Add("1767236400", "")
	f.Add("", "-1")
	f.Add("2026-01-01T03:00:00.5+01:00", "99999999999999")
	f.Add("yesterday", "")
	f.Add("", "-62135596800")
	f.Fuzz(func(t *testing.T, from, to string) {
		q := url.Values{"from": {from}, "to": {to}}.Encode()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+s.ID+"/history?"+q, nil))
		lo, errLo := parseTimeParam(from)
		hi, errHi := parseTimeParam(to)
		if errLo != nil || errHi != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("from %q, to %q: status %d, want 400", from, to, rec.Code)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("from %q, to %q: status %d, want 200: %s", from, to, rec.Code, rec.Body)
		}
		var resp struct {
			Points []struct {
				At time.Time `json:"at"`
			} `json:"points"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for i, p := range resp.Points {
			if from != "" && p.At.Before(lo) || to != "" && p.At.After(hi) {
				t.Fatalf("from %q, to %q: point at %v outside the bounds", from, to, p.At)
			}
			if i > 0 && p.At.Before(resp.Points[i-1].At) {
				t.Fatalf("from %q, to %q: point at %v after one at %v", from, to, p.At, resp.Points[i-1].At)
			}
		}
	})
}
