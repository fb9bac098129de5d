package obs

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// TestInstrumentOpsZeroAlloc pins the hot-path contract: updating a
// bound instrument never touches the heap. Pacing loops, the WAL
// append path and per-request HTTP accounting all ride on this.
func TestInstrumentOpsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h", DefBuckets)
	vc := r.CounterVec("vc_total", "h", "shard").With("3")
	vg := r.GaugeVec("vg", "h", "shard").With("3")
	vh := r.HistogramVec("vh_seconds", "h", DefBuckets, "route").With("create")

	cases := []struct {
		name string
		op   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(7) }},
		{"Counter.AddFloat", func() { c.AddFloat(0.5) }},
		{"Counter.Set", func() { c.Set(42) }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Gauge.SetInt", func() { g.SetInt(9) }},
		{"Gauge.Add", func() { g.Add(-2) }},
		{"Histogram.Observe", func() { h.Observe(0.017) }},
		{"BoundVecCounter.Inc", func() { vc.Inc() }},
		{"BoundVecGauge.Set", func() { vg.Set(3) }},
		{"BoundVecHistogram.Observe", func() { vh.Observe(0.017) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestRenderAllocsBounded: the scrape path reuses its buffer, so a
// steady render settles to a small per-scrape allocation count that
// does not scale with sample count (the per-family child snapshots are
// the only per-render slices).
func TestRenderAllocsBounded(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("many", "h", "i")
	for i := 0; i < 200; i++ {
		v.With(strconv.Itoa(i)).Set(float64(i))
	}
	r.Counter("c_total", "h").Inc()
	r.Histogram("h_seconds", "h", DefBuckets).Observe(0.1)

	// Warm the buffer pool.
	for i := 0; i < 4; i++ {
		r.Write(io.Discard)
	}
	allocs := testing.AllocsPerRun(100, func() { r.Write(io.Discard) })
	// 3 families -> one snapshot slice each, plus pool bookkeeping.
	if allocs > 12 {
		t.Errorf("render allocates %v per scrape, want <= 12", allocs)
	}
}

// daemonShapedRegistry builds a registry shaped like a loaded daemon's:
// 40 static counter and gauge families standing in for the store,
// breaker, health and watchdog surface, per-route HTTP request counters
// (12 routes × 5 status classes) and latency histograms, per-shard
// reflector counters and a 64-session fleet of gauges. 45 families, 404
// samples.
func daemonShapedRegistry() *Registry {
	r := NewRegistry()
	for i := 0; i < 24; i++ {
		r.Counter(fmt.Sprintf("bench_static_%02d_total", i), "Synthetic counter family.").Add(uint64(i * 17))
	}
	for i := 0; i < 16; i++ {
		r.Gauge(fmt.Sprintf("bench_gauge_%02d", i), "Synthetic gauge family.").Set(float64(i) * 1.5)
	}
	requests := r.CounterVec("bench_http_requests_total", "Synthetic request counter.", "route", "code")
	latency := r.HistogramVec("bench_http_request_seconds", "Synthetic latency histogram.", nil, "route")
	for _, route := range []string{"create", "list", "get", "snapshot", "history", "store_stats", "stop", "delete", "metrics", "healthz", "readyz", "other"} {
		for _, code := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
			requests.With(route, code).Inc()
		}
		h := latency.With(route)
		for i := 0; i < 32; i++ {
			h.Observe(float64(i) / 997)
		}
	}
	shardPackets := r.CounterVec("bench_shard_packets_total", "Synthetic per-shard counter.", "shard")
	for i := 0; i < 8; i++ {
		shardPackets.With(strconv.Itoa(i)).Add(uint64(i) * 1000)
	}
	freq := r.GaugeVec("bench_session_frequency", "Synthetic per-session gauge.", "session")
	m := r.GaugeVec("bench_session_experiments", "Synthetic per-session gauge.", "session")
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("s%04d", i)
		freq.With(id).Set(float64(i) / 997)
		m.With(id).SetInt(int64(i * 31))
	}
	return r
}

// scrapeWriter stands in for a scrape's response writer: each render
// gets a fresh one, as each scrape does, and it is one of the
// allocations counted.
type scrapeWriter struct{ n int }

func (w *scrapeWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestDaemonShapedRenderAllocs pins the allocations of one /metrics
// render of a daemon-shaped registry into a fresh writer. A render
// allocates per family (the child snapshots), not per sample, so the
// count is a property of the registry's shape: 97 when the ceiling was
// set, which allows 20 % more plus one.
func TestDaemonShapedRenderAllocs(t *testing.T) {
	const ceiling = 117
	r := daemonShapedRegistry()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			samples++
		}
	}
	if fams := len(r.Families()); fams != 45 || samples != 404 {
		t.Fatalf("registry has %d families and %d samples, want 45 and 404", fams, samples)
	}

	for i := 0; i < 8; i++ { // warm the render buffer pool
		r.Write(io.Discard)
	}
	allocs := testing.AllocsPerRun(64, func() { r.Write(new(scrapeWriter)) })
	t.Logf("a daemon-shaped render allocates %.0f times (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("a daemon-shaped render allocates %.0f times, want at most %d", allocs, ceiling)
	}
}
