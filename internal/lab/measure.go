package lab

import (
	"math"

	"badabing/internal/badabing"
	"badabing/internal/capture"
	"badabing/internal/estimate"
	"badabing/internal/probe"
	"badabing/internal/session"
	"badabing/internal/simnet"
)

// bbConfig is what a lab cell varies about a BADABING measurement.
type bbConfig struct {
	plans  []badabing.Plan
	marker badabing.MarkerConfig
	probe  probe.BadabingConfig // slot width (set it: truth is read at it) and packets per probe
	pairs  bool                 // §5.5 extended pairs in the estimator
}

// bbRun is one simulated BADABING measurement inside a lab cell. Every
// lab BADABING cell measures through it: the simulated prober sends the
// schedule's probes, session.MarkSlots marks what they observed and
// estimate.Batch replays the outcomes. Hand-built schedules (Poisson
// pairs, shifted adaptive rounds) go through it like drawn ones, which is
// why it replays a schedule instead of drawing one as session.Run does.
type bbRun struct {
	bbConfig
	bb *probe.Badabing
}

// startBadabing starts c's probes into the path entering at entry and
// leaving through demux.
func startBadabing(sim *simnet.Sim, entry *simnet.Link, demux *simnet.Demux, flow uint64, c bbConfig) *bbRun {
	return &bbRun{bbConfig: c, bb: probe.StartBadabing(sim, entry, demux, flow, c.probe, badabing.ProbeSlots(c.plans))}
}

// marks classifies every observation so far.
func (r *bbRun) marks() map[int64]bool {
	return session.MarkSlots(r.bb.Observations(), nil, r.marker)
}

// estimates replays the schedule through the batch estimator; experiments
// whose probes have not been sent yet are skipped, so it may be read
// mid-run.
func (r *bbRun) estimates() badabing.Estimates {
	sc := badabing.StreamConfig{Slot: r.probe.Slot, ExtendedPairs: r.pairs}
	snap, _, err := estimate.Batch(estimate.Config{}, sc, r.plans, r.marks())
	if err != nil {
		panic(err) // the default estimator over a lab slot width is valid
	}
	return snap.Total
}

// counts is the tally form of estimates, which the adaptive controller
// merges round by round — the form the wire collector's control channel
// answers in — assembled through the same loop estimate.Batch replays.
func (r *bbRun) counts() badabing.Counts {
	acc := badabing.Accumulator{ExtendedPairs: r.pairs}
	badabing.Assemble(r.plans, r.marks(), func(_ int64, bits []bool) { acc.Add(bits) })
	return acc.Counts()
}

// measure runs one BADABING measurement of c over a fresh testbed
// carrying sc's cross traffic, to the horizon plus drain time, and
// returns the estimates with the bottleneck's ground truth.
func measure(sc Scenario, cfg RunConfig, c bbConfig) (badabing.Estimates, capture.Truth) {
	path := NewPath(sc, cfg)
	r := startBadabing(path.Sim, path.D.Bottleneck, path.D.FwdDemux, probeFlowID, c)
	path.Run(cfg.Horizon)
	return r.estimates(), path.Mon.Truth(cfg.Horizon, c.probe.Slot)
}

// orNaN is an estimate as the tables print it: NaN when undefined.
func orNaN(v float64, ok bool) float64 {
	if !ok {
		return math.NaN()
	}
	return v
}
