// Package estimate is the pluggable streaming estimation pipeline: one
// Observe/Snapshot interface that every estimator in the paper's family
// implements — the basic and improved F̂/D̂ algorithms (§5), the
// parametric geometric-episode fit (§8) and the moving-block bootstrap
// confidence intervals (§4) — all in O(1)-per-outcome streaming form.
//
// Every kind shares the same incremental core (badabing.Stream), so the
// numeric fields of any snapshot are produced by exactly the code the
// batch pipeline uses; the kinds differ only in which duration estimator
// is the headline and whether confidence intervals are attached. Batch
// estimation is a thin replay over the same core (Batch), which makes
// stream/batch Float64bits parity true by construction rather than by
// test discipline.
//
// The registry (Kinds, Normalize, New) is the single source of truth for
// the valid estimator names: flag help, HTTP validation and docs all
// derive from it, so they cannot drift.
package estimate

import (
	"fmt"
	"slices"
	"strings"

	"badabing/internal/badabing"
)

// Estimator kinds. DefaultKind is what an empty selection resolves to.
const (
	KindBasic      = "basic"      // §5.2: headline duration is the two-probe D̂
	KindImproved   = "improved"   // §5.3: headline duration prefers the triple-probe D̂
	KindParametric = "parametric" // §8: headline duration is 1/(1−ĝ) slots
	KindBootstrap  = "bootstrap"  // improved plus moving-block bootstrap intervals (§4)

	DefaultKind = KindImproved
)

// kinds is the registry, in canonical (documentation) order. Everything
// that enumerates estimators — flag help, validation errors, the fleet's
// 400 responses — walks this slice.
var kinds = []string{KindBasic, KindImproved, KindParametric, KindBootstrap}

// Kinds returns the valid estimator kind names in canonical order.
func Kinds() []string { return slices.Clone(kinds) }

// KindList renders the registry for one-line flag help, e.g.
// "basic, improved, parametric, bootstrap".
func KindList() string {
	return strings.Join(kinds, ", ")
}

// Normalize resolves a user-supplied kind name: empty selects
// DefaultKind, names are case-insensitive, anything not in the registry
// is an error (the fleet maps it to HTTP 400).
func Normalize(kind string) (string, error) {
	if kind == "" {
		return DefaultKind, nil
	}
	if k := strings.ToLower(kind); slices.Contains(kinds, k) {
		return k, nil
	}
	return "", fmt.Errorf("estimate: unknown estimator kind %q (valid: %s)", kind, KindList())
}

// Config selects and parameterizes an estimator. It is the JSON
// "estimator" object of the fleet's session-create API; the zero value
// selects the improved estimator with default settings.
type Config struct {
	// Kind names the estimator; empty selects DefaultKind. See Kinds.
	Kind string `json:"kind,omitempty"`
	// Resamples / BlockLen / Level / Seed tune the bootstrap kind and are
	// ignored by the others. Zero values select the bootstrap defaults
	// (200 resamples, 50-outcome blocks, 95% level, seed 1). The seed is
	// fixed, never clock-derived: snapshots must replay identically.
	Resamples int     `json:"resamples,omitempty"`
	BlockLen  int     `json:"block_len,omitempty"`
	Level     float64 `json:"level,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
}

// maxResamples / maxBlockLen bound the bootstrap work a config can
// demand: the estimator runs inside the daemon's snapshot path, so a
// hostile session spec must not be able to buy unbounded CPU.
const (
	maxResamples = 10_000
	maxBlockLen  = 1_000_000
)

// Validate rejects configurations New would refuse, with errors suitable
// for client-facing 400 responses.
func (c Config) Validate() error {
	if _, err := Normalize(c.Kind); err != nil {
		return err
	}
	if c.Resamples < 0 || c.Resamples > maxResamples {
		return fmt.Errorf("estimate: resamples %d out of range [0,%d]", c.Resamples, maxResamples)
	}
	if c.BlockLen < 0 || c.BlockLen > maxBlockLen {
		return fmt.Errorf("estimate: block_len %d out of range [0,%d]", c.BlockLen, maxBlockLen)
	}
	if c.Level < 0 || c.Level >= 1 {
		return fmt.Errorf("estimate: confidence level %v out of range [0,1)", c.Level)
	}
	return nil
}

// Snapshot is the state of an estimator at one instant. It embeds the
// stream snapshot (total and window views), tags it with the estimator
// kind and, for the bootstrap kind, attaches confidence intervals for
// the total view's frequency and duration estimates.
type Snapshot struct {
	// Kind names the estimator that produced this snapshot.
	Kind string `json:"kind"`
	badabing.StreamSnapshot
	// FrequencyCI / DurationCI are bootstrap confidence intervals over
	// the total view (bootstrap kind only; nil otherwise). The duration
	// interval covers the basic-algorithm estimator, mirroring
	// Recorder.Bootstrap.
	FrequencyCI *badabing.Interval `json:"frequency_ci,omitempty"`
	DurationCI  *badabing.Interval `json:"duration_ci,omitempty"`
}

// Estimator is the streaming estimation interface: feed experiment
// outcomes one at a time, snapshot at any instant. Implementations are
// not safe for concurrent use; the session loop owns its estimator.
type Estimator interface {
	// Kind returns the registry name this estimator was built under.
	Kind() string
	// Observe records one experiment outcome (2 or 3 congestion bits)
	// that started at the given slot. O(1) per call.
	Observe(slot int64, bits []bool)
	// M returns the number of experiments observed so far.
	M() int
	// Snapshot computes the current estimates. It may be called at any
	// time, including on an empty estimator.
	Snapshot() Snapshot
	// Reset discards all observed outcomes, returning the estimator to
	// its freshly-constructed state (the session engine's end-of-run
	// rebuild re-feeds the fully re-marked observation set).
	Reset()
}

// New builds the estimator cfg selects over a stream shaped by sc: the
// slot width, window and §5.5 pairs describe the probe process, not the
// estimator choice, which is why they travel separately from Config.
// Unknown kinds, out-of-range bootstrap settings and invalid stream
// shapes are errors.
func New(cfg Config, sc badabing.StreamConfig) (Estimator, error) {
	kind, err := Normalize(cfg.Kind)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &streamEstimator{kind: kind, cfg: cfg, sc: sc}
	if err := e.rebuild(); err != nil {
		return nil, err
	}
	return e, nil
}

// streamEstimator implements every kind over the shared incremental
// core: one badabing.Stream, plus (bootstrap only) a Recorder retaining
// the outcome sequence for resampling.
type streamEstimator struct {
	kind   string
	cfg    Config
	sc     badabing.StreamConfig
	stream *badabing.Stream
	rec    *badabing.Recorder // bootstrap kind only
}

func (e *streamEstimator) Kind() string { return e.kind }

// rebuild is Reset with the construction error exposed (New validates
// the stream shape exactly once through it).
func (e *streamEstimator) rebuild() error {
	stream, err := badabing.NewStream(e.sc)
	if err != nil {
		return err
	}
	e.stream = stream
	if e.kind == KindBootstrap {
		e.rec = &badabing.Recorder{Acc: badabing.Accumulator{Slot: e.sc.Slot, ExtendedPairs: e.sc.ExtendedPairs}}
	}
	return nil
}

func (e *streamEstimator) Reset() {
	// The stream shape was validated at construction; rebuilding
	// cannot fail.
	if err := e.rebuild(); err != nil {
		panic(fmt.Sprintf("estimate: reset of validated estimator failed: %v", err))
	}
}

func (e *streamEstimator) Observe(slot int64, bits []bool) {
	e.stream.Observe(slot, bits)
	if e.rec != nil {
		e.rec.Add(bits)
	}
}

func (e *streamEstimator) M() int { return e.stream.M() }

func (e *streamEstimator) Snapshot() Snapshot {
	snap := Snapshot{Kind: e.kind, StreamSnapshot: e.stream.Snapshot()}
	applyKind(e.kind, &snap.Total)
	applyKind(e.kind, &snap.Window)
	if e.rec != nil && e.rec.Acc.M() > 0 {
		freq, dur, durOK := e.rec.Bootstrap(badabing.BootstrapConfig{
			Resamples: e.cfg.Resamples,
			BlockLen:  e.cfg.BlockLen,
			Level:     e.cfg.Level,
			Seed:      e.cfg.Seed,
		})
		snap.FrequencyCI = &freq
		if durOK {
			snap.DurationCI = &dur
		}
	}
	return snap
}

// applyKind selects the headline Duration field per estimator kind. The
// component estimates (basic, improved, geometric, r̂, stddev) are
// always present in Estimates regardless of kind; only the headline
// changes, so switching kinds never hides data.
func applyKind(kind string, e *badabing.Estimates) {
	switch kind {
	case KindBasic:
		e.Duration, e.HasDuration = e.DurationBasic, e.HasDurationBasic
	case KindParametric:
		// Geometric when the model has data; otherwise keep the
		// nonparametric fallback already selected by EstimatesOf.
		if e.HasDurationGeometric {
			e.Duration, e.HasDuration = e.DurationGeometric, true
		}
	}
	// KindImproved and KindBootstrap keep EstimatesOf's headline: the
	// improved estimator when defined, basic otherwise.
}

// Batch is the only batch entry point: it replays the outcomes a
// completed run's marks assemble to, in plan order, through a fresh
// estimator of cfg's kind (badabing.Assemble, the loop a live session
// feeds through too) and returns the final snapshot plus the number of
// experiments skipped because a probe slot was missing or invalid. Its
// result is Float64bits-identical to a live session's end-of-run
// snapshot over the same marks.
func Batch(cfg Config, sc badabing.StreamConfig, plans []badabing.Plan, bySlot map[int64]bool) (Snapshot, int, error) {
	est, err := New(cfg, sc)
	if err != nil {
		return Snapshot{}, 0, err
	}
	skipped := badabing.Assemble(plans, bySlot, est.Observe)
	return est.Snapshot(), skipped, nil
}
