// Package health is badabingd's self-monitoring core: a daemon-wide
// health state machine aggregating per-component probes, and a resource
// watchdog that samples goroutine, file-descriptor and heap usage
// against configurable budgets.
//
// Components (the store circuit breaker, the resource watchdog, the
// drain path) report their state into a Monitor; the daemon's overall
// state is the worst component state. The API's GET /readyz endpoint
// and the badabingd_health_* metric families read the same snapshot, so
// an operator and a load balancer see the daemon through one pair of
// eyes. The machine is intentionally simple:
//
//	ok        every component healthy; full service
//	degraded  a component is impaired but the daemon still measures
//	          (e.g. the WAL breaker is open and spilling in memory) —
//	          durability or headroom is reduced, visibly
//	failing   a component has exhausted its fallback (spill overflow,
//	          resource budget blown past the hard multiple): new work
//	          is shed with 503 until the component recovers
//
// Transitions are logged exactly once per state change, never per
// sample, so a flapping probe cannot flood the log.
package health

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"badabing/internal/obs"
)

// State is a component's (or the daemon's aggregate) health position.
type State int32

const (
	// Ok means fully healthy.
	Ok State = iota
	// Degraded means impaired but serving: reduced durability or
	// headroom that an operator should know about.
	Degraded
	// Failing means the fallback is exhausted; new work must be shed.
	Failing
)

func (s State) String() string {
	switch s {
	case Ok:
		return "ok"
	case Degraded:
		return "degraded"
	case Failing:
		return "failing"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the state as its lowercase name.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// worse returns the more severe of two states.
func worse(a, b State) State {
	if b > a {
		return b
	}
	return a
}

// Probe is one component's reported condition.
type Probe struct {
	State State `json:"state"`
	// Reason is the human-readable cause for a non-ok state ("" when ok).
	Reason string `json:"reason,omitempty"`
	// Since is when the component entered its current state.
	Since time.Time `json:"since"`
}

// Snapshot is the monitor's full view: the aggregate plus every
// component, the /readyz body shape.
type Snapshot struct {
	State      State            `json:"state"`
	Components map[string]Probe `json:"components,omitempty"`
}

// Monitor aggregates component probes into the daemon state. All
// methods are safe for concurrent use. The zero Monitor is not usable;
// call NewMonitor.
type Monitor struct {
	log *slog.Logger
	now func() time.Time

	mu         sync.Mutex
	components map[string]Probe

	// state mirrors the aggregate lock-free for hot-path admission
	// checks (every POST /v1/sessions reads it).
	state       atomic.Int32
	transitions atomic.Int64
}

// NewMonitor builds a monitor. log receives one structured line per
// state transition (nil discards them).
func NewMonitor(log *slog.Logger) *Monitor {
	if log == nil {
		log = obs.Discard
	}
	return &Monitor{
		log:        log,
		now:        time.Now,
		components: make(map[string]Probe),
	}
}

// setNow injects a clock for tests.
func (m *Monitor) setNow(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = now
}

// Set reports component's current condition. Re-reporting the same
// state refreshes the reason but neither logs nor counts a transition;
// a state change logs exactly one line and updates the aggregate.
func (m *Monitor) Set(component string, s State, reason string) {
	m.mu.Lock()
	prev, known := m.components[component]
	p := Probe{State: s, Reason: reason, Since: prev.Since}
	// A component's first report at Ok is its baseline, not a
	// transition; first reports of trouble do log.
	changed := (known && prev.State != s) || (!known && s != Ok)
	if changed {
		p.Since = m.now()
	}
	if s == Ok {
		p.Reason = ""
	}
	m.components[component] = p
	aggBefore := State(m.state.Load())
	agg := m.aggregateLocked()
	m.state.Store(int32(agg))
	m.mu.Unlock()

	if changed {
		m.transitions.Add(1)
		if reason == "" {
			reason = "recovered"
		}
		m.logTransition(s, "health transition",
			"component", component, "from", prev.State, "to", s, "reason", reason)
	}
	if agg != aggBefore {
		m.logTransition(agg, "daemon health changed", "from", aggBefore, "to", agg)
	}
}

// logTransition picks the log level from the severity being entered:
// recoveries are info, impairment is warn, failure is error.
func (m *Monitor) logTransition(s State, msg string, kv ...any) {
	switch s {
	case Failing:
		m.log.Error(msg, kv...)
	case Degraded:
		m.log.Warn(msg, kv...)
	default:
		m.log.Info(msg, kv...)
	}
}

func (m *Monitor) aggregateLocked() State {
	agg := Ok
	for _, p := range m.components {
		agg = worse(agg, p.State)
	}
	return agg
}

// State returns the aggregate daemon state (lock-free).
func (m *Monitor) State() State {
	return State(m.state.Load())
}

// Transitions counts component state changes since start.
func (m *Monitor) Transitions() int64 {
	return m.transitions.Load()
}

// Snapshot returns the aggregate plus a copy of every component probe.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{
		State:      m.aggregateLocked(),
		Components: make(map[string]Probe, len(m.components)),
	}
	for name, p := range m.components {
		snap.Components[name] = p
	}
	return snap
}

// RegisterMetrics registers the badabingd_health_* families into the
// observability registry; each scrape mirrors the live snapshot.
func (m *Monitor) RegisterMetrics(o *obs.Registry) {
	state := o.Gauge("badabingd_health_state", "Daemon health: 0 ok, 1 degraded, 2 failing.")
	component := o.GaugeVec("badabingd_health_component", "Component health: 0 ok, 1 degraded, 2 failing.", "component")
	transitions := o.Counter("badabingd_health_transitions_total", "Component health state changes since start.")
	o.OnScrape(func() {
		snap := m.Snapshot()
		state.SetInt(int64(snap.State))
		component.Reset()
		for name, p := range snap.Components {
			component.With(name).SetInt(int64(p.State))
		}
		transitions.Set(float64(m.Transitions()))
	})
}
