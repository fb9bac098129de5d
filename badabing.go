// Package badabing is a Go implementation of the BADABING loss-measurement
// methodology from "Improving Accuracy in End-to-end Packet Loss
// Measurement" (Sommers, Barford, Duffield, Ron — SIGCOMM 2005).
//
// It estimates two characteristics of an end-to-end path that simple
// Poisson probing measures poorly: the frequency of loss episodes and
// their mean duration. The probe process is a discrete-time design —
// at each time slot, with probability p, a short experiment of two (or,
// in the improved design, sometimes three) multi-packet probes is sent —
// whose estimators are consistent under mild assumptions, with built-in
// validation tests that report when the estimates should not be trusted.
//
// This root package re-exports the measurement core so downstream users
// can depend on a single import path:
//
//	plans, err := badabing.Schedule(badabing.ScheduleConfig{P: 0.3, N: 180000, Seed: 1})
//	... // run the probes, Mark the observations into a per-slot map bySlot
//	acc := &badabing.Accumulator{}
//	badabing.Assemble(plans, bySlot, func(_ int64, bits []bool) { acc.Add(bits) })
//	est := badabing.EstimatesOf(acc) // F̂, D̂ and the §5.4 validation
//	trusted := est.Validation.Passes(badabing.Criteria{})
//
// The repository also contains:
//
//   - a real-UDP sender/collector pair (cmd/badabing) and a Poisson
//     prober baseline (cmd/zing);
//   - a userspace UDP impairment gateway for end-to-end testing without
//     router hardware (cmd/gateway);
//   - a discrete-event reproduction of the paper's laboratory testbed and
//     every table and figure of its evaluation (cmd/labsim, bench_test.go).
package badabing

import (
	"time"

	core "badabing/internal/badabing"
)

// Core probe-process model and estimators (paper §5).
type (
	// Accumulator tallies experiment outcomes and computes the
	// frequency and duration estimators.
	Accumulator = core.Accumulator
	// Plan is one scheduled experiment (start slot and probe count).
	Plan = core.Plan
	// ScheduleConfig parameterizes experiment generation.
	ScheduleConfig = core.ScheduleConfig
	// Validation carries the §5.4 self-calibration checks.
	Validation = core.Validation
	// Criteria are acceptance thresholds for Validation.
	Criteria = core.Criteria
	// ProbeObs is a raw per-probe observation.
	ProbeObs = core.ProbeObs
	// MarkerConfig holds the §6.1 congestion-marking parameters α, τ.
	MarkerConfig = core.MarkerConfig
	// MonitorConfig is the open-ended stopping rule: its Converged
	// reports whether Estimates rest on enough validated evidence.
	MonitorConfig = core.MonitorConfig
)

// DefaultSlot is the paper's 5 ms discretization interval.
const DefaultSlot = core.DefaultSlot

// Schedule draws the experiment start slots for a session, rejecting
// invalid configurations with an error.
func Schedule(cfg ScheduleConfig) ([]Plan, error) { return core.Schedule(cfg) }

// MustSchedule is Schedule for statically known-good configurations; it
// panics on an invalid one.
func MustSchedule(cfg ScheduleConfig) []Plan { return core.MustSchedule(cfg) }

// Fraction returns a pointer to f, for ScheduleConfig.ExtendedFraction.
func Fraction(f float64) *float64 { return core.Fraction(f) }

// Streaming estimation (mid-run snapshots over sliding windows).
type (
	// Stream is the incremental estimator: outcomes are observed one at
	// a time and F̂/D̂/r̂ can be snapshotted mid-run.
	Stream = core.Stream
	// StreamConfig parameterizes a Stream.
	StreamConfig = core.StreamConfig
	// StreamSnapshot is the estimator state at one instant.
	StreamSnapshot = core.StreamSnapshot
	// Estimates is the one result: F̂, D̂, r̂, the §7 reliability bound
	// and the §5.4 validation of one view, JSON-friendly.
	Estimates = core.Estimates
)

// NewStream validates the configuration and returns an empty stream.
func NewStream(cfg StreamConfig) (*Stream, error) { return core.NewStream(cfg) }

// EstimatesOf summarizes an accumulator in Estimates form.
func EstimatesOf(a *Accumulator) Estimates { return core.EstimatesOf(a) }

// Mark classifies probes as congested per §6.1 (loss, or high one-way
// delay near a loss). Observations must be in send order.
func Mark(obs []ProbeObs, cfg MarkerConfig) []bool { return core.Mark(obs, cfg) }

// Recorder retains what bootstrap confidence intervals need of the
// outcome sequence.
type Recorder = core.Recorder

// Interval is a bootstrap confidence interval.
type Interval = core.Interval

// BootstrapConfig controls Recorder.Bootstrap resampling.
type BootstrapConfig = core.BootstrapConfig

// Counts is the transferable outcome-tally state of an Accumulator.
type Counts = core.Counts

// Adaptive is the round-based §8 adaptivity controller.
type Adaptive = core.Adaptive

// AdaptiveConfig parameterizes an Adaptive controller.
type AdaptiveConfig = core.AdaptiveConfig

// NewAdaptive creates an adaptive controller, rejecting configurations it
// cannot run.
func NewAdaptive(cfg AdaptiveConfig) (*Adaptive, error) { return core.NewAdaptive(cfg) }

// Assemble groups per-slot congestion bits into experiment outcomes and
// hands each to observe; it returns how many experiments it skipped.
func Assemble(plans []Plan, marked map[int64]bool, observe func(slot int64, bits []bool)) int {
	return core.Assemble(plans, marked, observe)
}

// RecommendedMarker returns the §6.2 α/τ choices for a probe rate.
func RecommendedMarker(p float64, slot time.Duration) MarkerConfig {
	return core.RecommendedMarker(p, slot)
}
