package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"badabing/internal/health"
)

// postCreate posts a minimal valid create and returns the response.
func postCreate(t *testing.T, url string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":"idle","slots":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, string(b)
}

// wantRetryAfter asserts the header carries a positive integer seconds
// value.
func wantRetryAfter(t *testing.T, hdr http.Header) {
	t.Helper()
	ra := hdr.Get("Retry-After")
	if ra == "" {
		t.Fatal("Retry-After header missing")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
}

// TestAdmissionShedding pins the overload-protection contract on
// session creation: failing health sheds with 503, a full pending queue
// sheds with 503, the per-client limiter sheds with 429 — all with
// Retry-After — and the shed counters surface on /metrics.
func TestAdmissionShedding(t *testing.T) {
	mon := health.NewMonitor(nil)
	lim := NewRateLimiter(1, 2) // 2-burst, 1 token/s
	clock := time.Unix(1700000000, 0)
	lim.setNow(func() time.Time { return clock })

	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{
		Health:     mon,
		MaxPending: 1,
		Limiter:    lim,
		RetryAfter: 7 * time.Second,
	}))
	defer srv.Close()

	// Healthy, idle: creates pass.
	code, _, body := postCreate(t, srv.URL)
	if code != 201 {
		t.Fatalf("healthy create: %d (%s)", code, body)
	}

	// Degraded still admits — impaired but serving.
	mon.Set("store", health.Degraded, "breaker open")
	if code, _, body = postCreate(t, srv.URL); code != 201 {
		t.Fatalf("degraded create: %d (%s)", code, body)
	}

	// Failing sheds with 503 + Retry-After.
	mon.Set("resources", health.Failing, "fd budget doubled")
	code, hdr, body := postCreate(t, srv.URL)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("failing create: %d (%s), want 503", code, body)
	}
	wantRetryAfter(t, hdr)
	if got := hdr.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %s, want 7 (configured)", got)
	}
	mon.Set("resources", health.Ok, "")
	mon.Set("store", health.Ok, "")

	// Rate limit: burst of 2 is already spent by the two accepted
	// creates; the next one sheds with 429 + computed Retry-After. With
	// one worker the second session queues until the first finishes, and
	// a queued session would shed this create as queue-full first, so
	// wait for the queue to drain.
	for deadline := time.Now().Add(10 * time.Second); reg.StateCounts()[Pending] > 0; {
		if time.Now().After(deadline) {
			t.Fatal("second session still pending after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	code, hdr, body = postCreate(t, srv.URL)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-rate create: %d (%s), want 429", code, body)
	}
	wantRetryAfter(t, hdr)

	// Advance the limiter clock; admission resumes.
	clock = clock.Add(5 * time.Second)
	if code, _, body = postCreate(t, srv.URL); code != 201 {
		t.Fatalf("create after refill: %d (%s)", code, body)
	}

	// Shed counters are on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`badabingd_admission_shed_total{reason="not_ready"} 1`,
		`badabingd_admission_shed_total{reason="rate_limited"} 1`,
		`badabingd_admission_shed_total{reason="queue_full"} 0`,
		`badabingd_health_state 0`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAdmissionQueueDepth: once MaxPending sessions are queued, further
// creates shed with 503 + Retry-After instead of growing the queue.
func TestAdmissionQueueDepth(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{MaxPending: 1}))
	defer srv.Close()

	// A slow session occupies the single worker; the next one queues.
	slow := `{"scenario":"idle","slots":100000,"step_slots":1000,"step_delay_micros":200000}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(slow))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 201 {
			t.Fatalf("create %d: %d (%s)", i, resp.StatusCode, b)
		}
	}
	// Wait until exactly one session is Pending (the other running).
	deadline := time.Now().Add(5 * time.Second)
	for reg.StateCounts()[Pending] != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("state counts never settled: %v", reg.StateCounts())
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, hdr, body := postCreate(t, srv.URL)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create over queue budget: %d (%s), want 503", code, body)
	}
	wantRetryAfter(t, hdr)
}

// TestRetryAfterOnFullAndDraining pins satellite (b): the pre-existing
// registry-full 429 and draining 503 now carry Retry-After.
func TestRetryAfterOnFullAndDraining(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 1, MaxSessions: 1})
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{}))
	defer srv.Close()

	if code, _, body := postCreate(t, srv.URL); code != 201 {
		t.Fatalf("first create: %d (%s)", code, body)
	}
	code, hdr, body := postCreate(t, srv.URL)
	if code != http.StatusTooManyRequests {
		t.Fatalf("create over MaxSessions: %d (%s), want 429", code, body)
	}
	wantRetryAfter(t, hdr)

	reg.Drain(time.Second)
	code, hdr, body = postCreate(t, srv.URL)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: %d (%s), want 503", code, body)
	}
	wantRetryAfter(t, hdr)
	reg.Close()
}

// TestReadyz pins the deep-readiness contract: 200 while ok or
// degraded, 503 + Retry-After once failing or draining, with the
// component detail in the body.
func TestReadyz(t *testing.T) {
	mon := health.NewMonitor(nil)
	reg := NewRegistry(Config{MaxConcurrent: 1})
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{Health: mon}))
	defer srv.Close()

	get := func() (int, http.Header, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("readyz body: %v", err)
		}
		return resp.StatusCode, resp.Header, body
	}

	if code, _, body := get(); code != 200 || body["status"] != "ok" {
		t.Fatalf("readyz ok: %d %v", code, body)
	}

	mon.Set("store", health.Degraded, "breaker open; spilling to memory")
	code, _, body := get()
	if code != 200 || body["status"] != "degraded" {
		t.Fatalf("readyz degraded: %d %v", code, body)
	}
	healthBody, _ := body["health"].(map[string]any)
	if healthBody == nil {
		t.Fatalf("readyz body missing health detail: %v", body)
	}

	mon.Set("store", health.Failing, "spill overflow")
	code, hdr, body := get()
	if code != http.StatusServiceUnavailable || body["status"] != "failing" {
		t.Fatalf("readyz failing: %d %v", code, body)
	}
	wantRetryAfter(t, hdr)

	mon.Set("store", health.Ok, "")
	reg.Drain(time.Second)
	code, hdr, body = get()
	if code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("readyz draining: %d %v", code, body)
	}
	wantRetryAfter(t, hdr)
	reg.Close()
}

// TestReadyzWithoutHealth: a handler with no monitor still serves
// /readyz from the draining flag alone.
func TestReadyzWithoutHealth(t *testing.T) {
	reg := NewRegistry(Config{MaxConcurrent: 1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("readyz without health: %d, want 200", resp.StatusCode)
	}
}
