package badabing

import (
	"fmt"
	"time"
)

// Adaptive probing (§8's "adding adaptivity to our probe process model in
// a limited sense"): measurement proceeds in rounds, starting at a gentle
// probe rate. After each round the §5.4 validation and the §7 reliability
// bound are consulted; if the estimates have converged the measurement
// stops, and if boundary evidence is accumulating too slowly the per-slot
// probability escalates. The trade-off between timeliness and impact
// (§7) is thus navigated automatically: quiet paths are probed lightly
// for longer, lossy paths briefly at higher rate.

// AdaptiveConfig parameterizes the controller.
type AdaptiveConfig struct {
	// PMin is the starting probe probability. Default 0.1.
	PMin float64
	// PMax caps escalation. Default 0.9.
	PMax float64
	// Escalation multiplies p on a slow round. Default 2.
	Escalation float64
	// RoundSlots is the round length in slots. Default 6000 (30 s at
	// the default slot width).
	RoundSlots int64
	// MinBoundaryGain is the number of new boundary observations
	// (01/10 outcomes) per round below which the round counts as slow.
	// Default 10.
	MinBoundaryGain int
	// Monitor carries the convergence criteria.
	Monitor MonitorConfig
	// MaxRounds bounds the whole measurement. Default 40.
	MaxRounds int
	// Slot is the width of the slots the rounds are probed at, which
	// also converts the duration estimates and the §7 reliability
	// bound to seconds. Default DefaultSlot.
	Slot time.Duration
}

func (c *AdaptiveConfig) applyDefaults() {
	if c.PMin == 0 {
		c.PMin = 0.1
	}
	if c.PMax == 0 {
		c.PMax = 0.9
	}
	if c.Escalation == 0 {
		c.Escalation = 2
	}
	if c.RoundSlots == 0 {
		c.RoundSlots = 6000
	}
	if c.MinBoundaryGain == 0 {
		c.MinBoundaryGain = 10
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 40
	}
	if c.Slot == 0 {
		c.Slot = DefaultSlot
	}
}

// validate rejects configurations the controller cannot run, after
// defaulting. NaN values fail the same comparisons as out-of-range ones.
func (c *AdaptiveConfig) validate() error {
	switch {
	case !(c.PMin > 0 && c.PMin <= c.PMax && c.PMax <= 1):
		return fmt.Errorf("badabing: invalid adaptive p range [%v, %v]", c.PMin, c.PMax)
	case !(c.Escalation >= 1):
		return fmt.Errorf("badabing: adaptive escalation %v must be at least 1", c.Escalation)
	case c.RoundSlots <= 0:
		return fmt.Errorf("badabing: adaptive round of %d slots must be positive", c.RoundSlots)
	case c.MaxRounds <= 0:
		return fmt.Errorf("badabing: adaptive round budget %d must be positive", c.MaxRounds)
	case c.Slot <= 0:
		return fmt.Errorf("badabing: adaptive slot width %v must be positive", c.Slot)
	}
	return nil
}

// Adaptive is the round-based controller. Use NextRound to obtain each
// round's schedule, feed the outcomes through Add, then call EndRound;
// repeat until Done.
type Adaptive struct {
	cfg AdaptiveConfig
	acc Accumulator

	p         float64
	round     int
	lastS     int
	converged bool
}

// NewAdaptive creates a controller. Configurations it cannot run — an
// empty or inverted p range, a non-positive round length, budget or slot
// width — are errors, never panics: they arrive from flags and requests.
func NewAdaptive(cfg AdaptiveConfig) (*Adaptive, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Adaptive{cfg: cfg, acc: Accumulator{Slot: cfg.Slot}, p: cfg.PMin}, nil
}

// P returns the current probe probability.
func (a *Adaptive) P() float64 { return a.p }

// RoundSlots returns the configured round length after defaulting, so
// round drivers size their sessions from the controller rather than
// re-implementing the defaulting rule.
func (a *Adaptive) RoundSlots() int64 { return a.cfg.RoundSlots }

// Slot returns the configured slot width after defaulting, so round
// drivers pace their probes at the width the estimates are converted at.
func (a *Adaptive) Slot() time.Duration { return a.cfg.Slot }

// Round returns how many rounds have completed.
func (a *Adaptive) Round() int { return a.round }

// Done reports whether measurement should stop: either the estimates
// converged or the round budget ran out.
func (a *Adaptive) Done() bool {
	return a.converged || a.round >= a.cfg.MaxRounds
}

// Converged reports whether Done is due to convergence rather than the
// round budget.
func (a *Adaptive) Converged() bool { return a.converged }

// NextRound returns the schedule for the next round, as slot offsets
// relative to the round's start (the caller owns absolute placement), and
// the probability it was drawn at.
func (a *Adaptive) NextRound(seed int64) ([]Plan, float64) {
	// NewAdaptive validated p ∈ (0, 1] and the round length.
	plans := MustSchedule(ScheduleConfig{
		P:        a.p,
		N:        a.cfg.RoundSlots,
		Improved: true,
		Seed:     seed,
	})
	return plans, a.p
}

// Add records one experiment outcome from the current round.
func (a *Adaptive) Add(bits []bool) { a.acc.Add(bits) }

// EndRound evaluates the stopping and escalation rules after a round's
// outcomes have been added.
func (a *Adaptive) EndRound() {
	a.round++
	if a.cfg.Monitor.Converged(a.Estimates()) {
		a.converged = true
		return
	}
	_, s := a.acc.RS()
	gain := s - a.lastS
	a.lastS = s
	if gain < a.cfg.MinBoundaryGain && a.p < a.cfg.PMax {
		a.p *= a.cfg.Escalation
		if a.p > a.cfg.PMax {
			a.p = a.cfg.PMax
		}
	}
}

// RunRounds drives the controller to completion over an abstract round
// executor: each iteration draws the next round's schedule at
// seed+round, hands it to exec together with the probability it was
// drawn at, and merges the returned outcome counts through the
// stopping/escalation rules. It is the one round loop shared by every
// substrate — the wire sender executes a round as a UDP session and
// queries the collector's control channel for the counts; the lab
// executes it on the simulated testbed. exec's error aborts the
// measurement with rounds already merged still counted.
func (a *Adaptive) RunRounds(seed int64, exec func(round int, plans []Plan, p float64) (Counts, error)) error {
	for !a.Done() {
		plans, p := a.NextRound(seed + int64(a.round))
		counts, err := exec(a.round, plans, p)
		if err != nil {
			return err
		}
		a.MergeRound(counts)
	}
	return nil
}

// Estimates returns the current estimates over every merged round.
func (a *Adaptive) Estimates() Estimates { return EstimatesOf(&a.acc) }

// Elapsed returns the measurement time the completed rounds spanned.
func (a *Adaptive) Elapsed() time.Duration {
	return time.Duration(a.round) * time.Duration(a.cfg.RoundSlots) * a.cfg.Slot
}
