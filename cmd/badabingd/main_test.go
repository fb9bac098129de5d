package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestDaemonEndToEnd boots the daemon on an ephemeral port, runs one
// session through the API, scrapes /metrics and shuts down cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-max-concurrent", "2"}, io.Discard, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":"idle","slots":2000,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || view.ID == "" {
		t.Fatalf("create: status %d view %+v", resp.StatusCode, view)
	}

	deadline := time.Now().Add(30 * time.Second)
	for view.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %q", view.State)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err = http.Get(base + "/v1/sessions/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	if !strings.Contains(string(body), `badabingd_sessions{state="done"} 1`) {
		t.Errorf("metrics missing done session:\n%s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonGracefulDrain sends a real SIGTERM to a daemon with an
// in-flight session and requires it to drain and exit within the
// -drain-timeout deadline: the session is cancelled (stopped, with its
// partial snapshot intact), new creates are refused with 503, and run()
// returns cleanly.
func TestDaemonGracefulDrain(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-max-concurrent", "2",
			"-drain-timeout", "5s", "-reflect", "127.0.0.1:0",
		}, io.Discard, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// The co-hosted reflector's counters ride on /metrics.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "badabingd_reflector_packets_total") {
		t.Errorf("metrics missing reflector counters:\n%s", body)
	}
	if !strings.Contains(string(body), `badabingd_reflector_shard_packets_total{shard="0"}`) {
		t.Errorf("metrics missing per-shard reflector rows:\n%s", body)
	}
	if !strings.Contains(string(body), "badabingd_reflector_read_errors_total") {
		t.Errorf("metrics missing reflector read-error counter:\n%s", body)
	}

	// A slow session that would run for ~2 minutes unattended: the drain
	// must cut it short.
	resp, err = http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":"idle","slots":60000,"seed":3,"step_delay_micros":2000000}`))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for view.State != "running" {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %q", view.State)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err = http.Get(base + "/v1/sessions/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain exited with error: %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatalf("daemon did not drain within the deadline")
	}
	if took := time.Since(start); took > 6*time.Second {
		t.Errorf("drain took %v, deadline was 5s", took)
	}
}

// TestDaemonBadFlags: flag errors surface instead of hanging. The
// context is already cancelled, so a daemon that accepted a bad value
// would drain and return nil at once.
func TestDaemonBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-listen", "127.0.0.1:0", "-log-level", "loud"},
		{"-listen", "127.0.0.1:0", "-log-format", "yaml"},
	} {
		if err := run(ctx, args, io.Discard, nil); err == nil {
			t.Errorf("%v: expected a flag error", args)
		}
	}
}

// lockedBuffer collects the daemon's log lines, which its goroutines
// write while the test waits.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestDaemonJSONLogs: under -log-format json every line the daemon
// writes is one JSON object with time, level and msg, and the listen
// and reflector addresses log as host:port strings.
func TestDaemonJSONLogs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logs lockedBuffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-reflect", "127.0.0.1:0", "-log-format", "json",
		}, &logs, ready)
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	addrs := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(logs.String(), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not one JSON object: %v\n%s", err, line)
		}
		for _, k := range []string{"time", "level", "msg"} {
			if _, ok := rec[k].(string); !ok {
				t.Errorf("log line lacks a %q string: %s", k, line)
			}
		}
		msg, _ := rec["msg"].(string)
		if msg != "listening" && msg != "reflecting" {
			continue
		}
		addr, _ := rec["addr"].(string)
		if _, _, err := net.SplitHostPort(addr); err != nil || rec["level"] != "INFO" {
			t.Errorf("%s line: want level INFO and addr host:port: %s", msg, line)
		}
		addrs[msg] = addr
	}
	if len(addrs) != 2 {
		t.Errorf("logged addresses %v, want listening and reflecting lines:\n%s", addrs, logs.String())
	}
}

// TestServerTimeouts pins satellite hardening: the HTTP server must
// carry the slowloris/stall protections, with sane values.
func TestServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NewServeMux(), false)
	cases := []struct {
		name string
		got  time.Duration
		want time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout, 5 * time.Second},
		{"ReadTimeout", srv.ReadTimeout, 30 * time.Second},
		{"IdleTimeout", srv.IdleTimeout, 2 * time.Minute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.got != tc.want {
				t.Fatalf("%s = %v, want %v", tc.name, tc.got, tc.want)
			}
			if tc.got <= 0 {
				t.Fatalf("%s unset; a stalled client can pin a connection forever", tc.name)
			}
		})
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want 0 (metrics/history responses may stream)", srv.WriteTimeout)
	}
}

// TestDaemonReadyz boots the daemon and checks the deep-readiness
// endpoint reports the health state machine.
func TestDaemonReadyz(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-watchdog-interval", "50ms"}, io.Discard, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status string `json:"status"`
		Health *struct {
			State      string                     `json:"state"`
			Components map[string]json.RawMessage `json:"components"`
		} `json:"health"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body.Status != "ok" {
		t.Fatalf("readyz: %d %+v", resp.StatusCode, body)
	}
	if body.Health == nil {
		t.Fatal("readyz body carries no health snapshot")
	}
	if _, ok := body.Health.Components["resources"]; !ok {
		t.Fatalf("watchdog component missing from readyz: %+v", body.Health.Components)
	}

	// Health metric families ride on /metrics.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"badabingd_health_state 0",
		`badabingd_health_component{component="resources"} 0`,
		"badabingd_watchdog_goroutines",
		"badabingd_admission_shed_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never exited")
	}
}
