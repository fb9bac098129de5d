package benchx

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"badabing/internal/obs"
)

// MetricsBench is the cost of the one exposition path every subsystem
// shares: how long one /metrics render of a daemon-shaped registry takes
// and how many heap allocations it performs. The render-allocation
// ceiling and the zero-allocation instrument updates are pinned by
// internal/obs's tests; here the figures are only reported.
type MetricsBench struct {
	Families        int
	Samples         int
	Renders         int
	NsPerRender     float64
	AllocsPerRender float64
}

// metricsRenders sizes the render timing loop.
func metricsRenders(opts Options) int {
	if opts.Short {
		return 300
	}
	return 1500
}

// countingWriter is the render sink: each render gets a fresh one, as
// each scrape gets its own response writer, and its allocation is one
// of those counted.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// RunMetricsBench measures the exposition render over a registry shaped
// like a loaded daemon's: the full static family surface plus per-route
// HTTP histograms, per-shard reflector counters and a 64-session fleet.
func RunMetricsBench(opts Options) (MetricsBench, error) {
	opts.applyDefaults()
	o := obs.NewRegistry()

	// Static families standing in for the store/breaker/health/watchdog
	// surface: ~40 families of counters and gauges.
	counters := make([]obs.Counter, 24)
	for i := range counters {
		counters[i] = o.Counter(fmt.Sprintf("bench_static_%02d_total", i), "Synthetic counter family.")
		counters[i].Add(uint64(i * 17))
	}
	gauges := make([]obs.Gauge, 16)
	for i := range gauges {
		gauges[i] = o.Gauge(fmt.Sprintf("bench_gauge_%02d", i), "Synthetic gauge family.")
		gauges[i].Set(float64(i) * 1.5)
	}

	// Per-route HTTP self-metrics: 12 routes x 5 status classes plus a
	// latency histogram per route.
	requests := o.CounterVec("bench_http_requests_total", "Synthetic request counter.", "route", "code")
	latency := o.HistogramVec("bench_http_request_seconds", "Synthetic latency histogram.", nil, "route")
	routes := []string{"create", "list", "get", "snapshot", "history", "store_stats", "stop", "delete", "metrics", "healthz", "readyz", "other"}
	for _, route := range routes {
		for _, code := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
			requests.With(route, code).Inc()
		}
		h := latency.With(route)
		for i := 0; i < 32; i++ {
			h.Observe(float64(i) / 997)
		}
	}

	// Per-shard reflector counters and a 64-session fleet of gauges.
	shardPackets := o.CounterVec("bench_shard_packets_total", "Synthetic per-shard counter.", "shard")
	for i := 0; i < 8; i++ {
		shardPackets.With(strconv.Itoa(i)).Add(uint64(i) * 1000)
	}
	freq := o.GaugeVec("bench_session_frequency", "Synthetic per-session gauge.", "session")
	m := o.GaugeVec("bench_session_experiments", "Synthetic per-session gauge.", "session")
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("s%04d", i)
		freq.With(id).Set(float64(i) / 997)
		m.With(id).SetInt(int64(i * 31))
	}

	mb := MetricsBench{Renders: metricsRenders(opts), Families: len(o.Families())}

	// Warm the render buffer pool, then time.
	for i := 0; i < 8; i++ {
		var w countingWriter
		if err := o.Write(&w); err != nil {
			return mb, err
		}
	}
	start := time.Now()
	for i := 0; i < mb.Renders; i++ {
		var w countingWriter
		if err := o.Write(&w); err != nil {
			return mb, err
		}
	}
	mb.NsPerRender = float64(time.Since(start).Nanoseconds()) / float64(mb.Renders)

	mb.AllocsPerRender = testing.AllocsPerRun(64, func() {
		var w countingWriter
		o.Write(&w)
	})

	// Samples: every rendered line is either a sample or one of the two
	// comment lines per family; approximate from the first render.
	mb.Samples = countSamples(o)
	return mb, nil
}

// countSamples renders once and counts sample (non-comment) lines.
func countSamples(o *obs.Registry) int {
	var buf bytes.Buffer
	o.Write(&buf)
	n := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}
