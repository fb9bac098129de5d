// Package obs is the daemon's observability core: a dependency-free
// typed metric registry with one Prometheus text-exposition renderer,
// and a small leveled structured logger.
//
// Every subsystem (fleet registry, durable store, circuit breaker,
// admission layer, health monitor, resource watchdog, reflector)
// registers its instruments into one Registry at construction; the
// /metrics endpoint renders that registry and nothing else. There is
// exactly one place that knows the exposition format — this package —
// so families are always well-formed: one HELP/TYPE pair each, sorted
// family and sample order, escaped label values.
//
// Instruments come in two flavors of use:
//
//   - Push: hot paths hold a pre-bound Counter/Gauge/Histogram and call
//     Inc/Add/Set/Observe directly. These operations are atomic and
//     allocation-free (pinned by AllocsPerRun tests), so they are safe
//     in pacing loops and per-request paths.
//   - Pull: subsystems that already keep authoritative internal state
//     (store stats, session snapshots) register an OnScrape collector
//     that mirrors that state into instruments right before each
//     render. Collectors run on the scrape path only.
//
// Label sets are fixed at registration: a vec is created with its label
// keys and children are bound per label-value tuple. Binding allocates
// once; the bound child is then update-only. Hot paths bind at setup
// (e.g. one counter per reflector shard), never per operation.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is an instrument family's Prometheus type.
type Kind uint8

const (
	// KindCounter is a monotonically increasing total.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a bucketed distribution with sum and count.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry holds instrument families and renders them as one sorted
// Prometheus text exposition. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	sorted     []*family // kept name-sorted; rebuilt on registration
	collectors []func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one metric family: fixed name, help, kind and label keys,
// plus its live children keyed by label-value tuple.
type family struct {
	name    string
	help    string
	kind    Kind
	keys    []string
	buckets []float64 // histogram upper bounds (+Inf implicit)

	mu       sync.Mutex
	children map[string]*sample
	hists    map[string]*histSample
}

// register creates or revalidates a family. Re-registering with an
// identical shape returns the existing family (idempotent); any
// mismatch is a programming error and panics.
func (r *Registry) register(name, help string, kind Kind, keys []string, buckets []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.help != help || !equalStrings(f.keys, keys) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: conflicting registration of %s", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		keys:     append([]string(nil), keys...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*sample),
		hists:    make(map[string]*histSample),
	}
	r.families[name] = f
	r.sorted = append(r.sorted, f)
	sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i].name < r.sorted[j].name })
	return f
}

// OnScrape registers a collector run at the start of every render, in
// registration order. Collectors mirror pull-style subsystem state
// (snapshots, stats structs) into instruments; they must not register
// new families.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, f)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sample is one counter or gauge child. The value is the sum of an
// integer part (fast atomic increments) and a float part (CAS-added),
// the classic split that keeps Inc/Add allocation-free without losing
// float totals.
type sample struct {
	labels string // pre-rendered `{k="v",...}`, "" when unlabeled
	ints   atomic.Uint64
	bits   atomic.Uint64 // float64 bits
}

func (s *sample) value() float64 {
	return float64(s.ints.Load()) + math.Float64frombits(s.bits.Load())
}

func (s *sample) addFloat(v float64) {
	for {
		old := s.bits.Load()
		if s.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// set overwrites the child's value (collector mirroring). Integral
// non-negative values land in the integer part so they render as
// integers.
func (s *sample) set(v float64) {
	if v >= 0 && v == math.Trunc(v) && v < (1<<53) {
		s.bits.Store(0)
		s.ints.Store(uint64(v))
		return
	}
	s.ints.Store(0)
	s.bits.Store(math.Float64bits(v))
}

// Counter is a monotone total. The zero Counter is invalid; obtain one
// from a Registry.
type Counter struct{ s *sample }

// Inc adds 1. Allocation-free.
func (c Counter) Inc() { c.s.ints.Add(1) }

// Add adds n. Allocation-free.
func (c Counter) Add(n uint64) { c.s.ints.Add(n) }

// AddFloat adds a fractional amount (e.g. seconds). Allocation-free.
func (c Counter) AddFloat(v float64) { c.s.addFloat(v) }

// Set mirrors an externally maintained monotone total into the counter
// (scrape-time collector use). The caller owns monotonicity.
func (c Counter) Set(v float64) { c.s.set(v) }

// Value returns the current total.
func (c Counter) Value() float64 { return c.s.value() }

// Gauge is a value that can go up and down. The zero Gauge is invalid;
// obtain one from a Registry.
type Gauge struct{ s *sample }

// Set overwrites the gauge. Allocation-free.
func (g Gauge) Set(v float64) { g.s.set(v) }

// SetInt overwrites the gauge with an integer value. Allocation-free.
func (g Gauge) SetInt(v int64) {
	if v >= 0 {
		g.s.bits.Store(0)
		g.s.ints.Store(uint64(v))
		return
	}
	g.s.ints.Store(0)
	g.s.bits.Store(math.Float64bits(float64(v)))
}

// Add adjusts the gauge by v (may be negative). Allocation-free.
func (g Gauge) Add(v float64) { g.s.addFloat(v) }

// Value returns the current value.
func (g Gauge) Value() float64 { return g.s.value() }

// histSample is one histogram child: cumulative-at-render bucket
// counts, an observation count and a float sum.
type histSample struct {
	labels  string
	buckets []float64
	counts  []atomic.Uint64 // len(buckets)+1; last is +Inf
	sumBits atomic.Uint64
}

// Histogram is a bucketed distribution. The zero Histogram is invalid;
// obtain one from a Registry.
type Histogram struct{ h *histSample }

// Observe records one value. Allocation-free.
func (h Histogram) Observe(v float64) {
	i := 0
	for i < len(h.h.buckets) && v > h.h.buckets[i] {
		i++
	}
	h.h.counts[i].Add(1)
	for {
		old := h.h.sumBits.Load()
		if h.h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// DefBuckets are general-purpose latency buckets in seconds (the
// client_golang defaults).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// child returns (creating if needed) the sample bound to the given
// label values. Binding allocates; bind once at setup, not per update.
func (f *family) child(values []string) *sample {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.children[key]; ok {
		return s
	}
	s := &sample{labels: renderLabels(f.keys, values)}
	f.children[key] = s
	return s
}

func (f *family) histChild(values []string) *histSample {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.hists[key]; ok {
		return h
	}
	h := &histSample{
		labels:  renderLabels(f.keys, values),
		buckets: f.buckets,
		counts:  make([]atomic.Uint64, len(f.buckets)+1),
	}
	f.hists[key] = h
	return h
}

// reset drops every child (collectors rebuilding a dynamic family —
// e.g. per-session gauges — call this before repopulating).
func (f *family) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.children)
	clear(f.hists)
}

// Counter registers (or returns) the unlabeled counter family name.
func (r *Registry) Counter(name, help string) Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return Counter{f.child(nil)}
}

// Gauge registers (or returns) the unlabeled gauge family name.
func (r *Registry) Gauge(name, help string) Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return Gauge{f.child(nil)}
}

// Histogram registers (or returns) the unlabeled histogram family name
// with the given upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, KindHistogram, nil, buckets)
	return Histogram{f.histChild(nil)}
}

// CounterVec is a counter family with fixed label keys.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, keys ...string) CounterVec {
	return CounterVec{r.register(name, help, KindCounter, keys, nil)}
}

// With binds (creating if needed) the child for the label values.
func (v CounterVec) With(values ...string) Counter { return Counter{v.f.child(values)} }

// Reset drops every child; the family renders empty until re-bound.
func (v CounterVec) Reset() { v.f.reset() }

// GaugeVec is a gauge family with fixed label keys.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labeled gauge family. Zero keys is
// allowed: the family then has one optional unlabeled sample whose
// presence a collector controls via Reset/With.
func (r *Registry) GaugeVec(name, help string, keys ...string) GaugeVec {
	return GaugeVec{r.register(name, help, KindGauge, keys, nil)}
}

// With binds (creating if needed) the child for the label values.
func (v GaugeVec) With(values ...string) Gauge { return Gauge{v.f.child(values)} }

// Reset drops every child; the family renders empty until re-bound.
func (v GaugeVec) Reset() { v.f.reset() }

// HistogramVec is a histogram family with fixed label keys.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family with
// the given upper bounds (nil = DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, keys ...string) HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return HistogramVec{r.register(name, help, KindHistogram, keys, buckets)}
}

// With binds (creating if needed) the child for the label values.
func (v HistogramVec) With(values ...string) Histogram { return Histogram{v.f.histChild(values)} }

// Reset drops every child; the family renders empty until re-bound.
func (v HistogramVec) Reset() { v.f.reset() }

// Families returns the sorted family names currently registered
// (tests and tooling).
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.sorted))
	for i, f := range r.sorted {
		names[i] = f.name
	}
	return names
}
