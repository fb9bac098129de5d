package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"badabing/internal/store"
)

// TestHTTPStatusCodes pins the API's error contract, uniformly across
// every route: unknown session ids are 404 (JSON body), malformed
// payloads and query parameters are 400, unmatched paths are a JSON
// 404 — never a default text/plain one, never a 500.
func TestHTTPStatusCodes(t *testing.T) {
	mem := store.NewMem()
	reg := NewRegistry(Config{MaxConcurrent: 1, Store: mem})
	defer reg.Close()
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{}))
	defer srv.Close()

	do := func(method, path, body string) (int, string, http.Header) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), resp.Header
	}

	// One real session so the happy paths stay distinguishable from the
	// error paths.
	s, err := reg.Create(SessionConfig{Scenario: "idle", Slots: 1000})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, 10*time.Second)

	cases := []struct {
		name         string
		method, path string
		body         string
		want         int
	}{
		{"get unknown id", "GET", "/v1/sessions/nope", "", 404},
		{"snapshot unknown id", "GET", "/v1/sessions/nope/snapshot", "", 404},
		{"history unknown id", "GET", "/v1/sessions/nope/history", "", 404},
		{"stop unknown id", "POST", "/v1/sessions/nope/stop", "", 404},
		{"delete unknown id", "DELETE", "/v1/sessions/nope", "", 404},
		{"history bad from", "GET", "/v1/sessions/" + s.ID + "/history?from=yesterday", "", 400},
		{"history bad to", "GET", "/v1/sessions/" + s.ID + "/history?to=2pm", "", 400},
		{"create malformed json", "POST", "/v1/sessions", `{"scenario":`, 400},
		{"create unknown field", "POST", "/v1/sessions", `{"scenariooo":"idle"}`, 400},
		{"create invalid config", "POST", "/v1/sessions", `{"scenario":"no-such-scenario"}`, 400},
		{"unmatched path", "GET", "/v1/nope", "", 404},
		{"root path", "GET", "/", "", 404},
		{"history ok", "GET", "/v1/sessions/" + s.ID + "/history", "", 200},
		{"history ok with bounds", "GET", "/v1/sessions/" + s.ID + "/history?from=0&to=2100-01-01T00:00:00Z", "", 200},
		{"store stats ok", "GET", "/v1/store/stats", "", 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, hdr := do(tc.method, tc.path, tc.body)
			if status != tc.want {
				t.Fatalf("%s %s: status %d, want %d (body %s)", tc.method, tc.path, status, tc.want, body)
			}
			if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("%s %s: content type %q, want JSON", tc.method, tc.path, ct)
			}
			if status >= 400 {
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
					t.Errorf("%s %s: error body %q, want {\"error\": ...}", tc.method, tc.path, body)
				}
			}
		})
	}

	// History with a store: points ride with fixed fields.
	var hist struct {
		ID     string `json:"id"`
		Store  bool   `json:"store"`
		Count  int    `json:"count"`
		Points []struct {
			AtUnixNano int64   `json:"at_unix_nano"`
			LossRate   float64 `json:"loss_rate"`
		} `json:"points"`
	}
	if code := getJSON(t, srv.URL+"/v1/sessions/"+s.ID+"/history", &hist); code != 200 {
		t.Fatalf("history: %d", code)
	}
	if !hist.Store || hist.Count != len(hist.Points) {
		t.Errorf("history response inconsistent: %+v", hist)
	}

	// Store stats report the sink.
	var stats struct {
		Enabled bool `json:"enabled"`
	}
	if code := getJSON(t, srv.URL+"/v1/store/stats", &stats); code != 200 {
		t.Fatalf("store stats: %d", code)
	}
	if stats.Enabled {
		t.Error("Mem sink is not a stats source; enabled should be false")
	}
}

// TestHTTPHistoryNoStore: without a sink the history endpoint still
// answers 200 with store:false and an empty series, and /v1/store/stats
// reports disabled.
func TestHTTPHistoryNoStore(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{}))
	defer srv.Close()

	s, err := reg.Create(SessionConfig{Scenario: "idle", Slots: 1000})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, 10*time.Second)

	var hist struct {
		Store  bool              `json:"store"`
		Count  int               `json:"count"`
		Points []json.RawMessage `json:"points"`
	}
	if code := getJSON(t, srv.URL+"/v1/sessions/"+s.ID+"/history", &hist); code != 200 {
		t.Fatalf("history: %d", code)
	}
	if hist.Store || hist.Count != 0 || hist.Points == nil || len(hist.Points) != 0 {
		t.Errorf("history without store: %+v, want store:false count:0 points:[]", hist)
	}

	var stats struct {
		Enabled bool `json:"enabled"`
	}
	if code := getJSON(t, srv.URL+"/v1/store/stats", &stats); code != 200 {
		t.Fatalf("store stats: %d", code)
	}
	if stats.Enabled {
		t.Error("store stats enabled without a store")
	}
}
