// Package simtransport adapts the discrete-event simulator to the session
// engine's Transport interface: probes are pre-scheduled as simulator
// events (preserving the event ordering the golden fixtures depend on) and
// AdvanceTo runs the event loop up to the requested virtual time.
package simtransport

import (
	"context"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/probe"
	"badabing/internal/simnet"
)

// Transport drives a BADABING session over a simulated path. Construct it
// with New (dumbbell) or NewAt (arbitrary entry/demux), then hand it to
// session.Run.
type Transport struct {
	sim   *simnet.Sim
	entry *simnet.Link
	demux *simnet.Demux
	flow  uint64
	cfg   probe.BadabingConfig
	bb    *probe.Badabing
}

// New wraps a dumbbell path. cfg.Slot must match the session Config's slot
// width (both default to badabing.DefaultSlot); the session engine
// supplies the flattened slot list at Launch.
func New(sim *simnet.Sim, d *simnet.Dumbbell, flow uint64, cfg probe.BadabingConfig) *Transport {
	return NewAt(sim, d.Bottleneck, d.FwdDemux, flow, cfg)
}

// NewAt is the topology-agnostic form: probes enter at entry and are
// collected from demux (e.g. a multi-hop chain).
func NewAt(sim *simnet.Sim, entry *simnet.Link, demux *simnet.Demux, flow uint64, cfg probe.BadabingConfig) *Transport {
	return &Transport{sim: sim, entry: entry, demux: demux, flow: flow, cfg: cfg}
}

// Launch pre-schedules one probe per slot on the simulator's event heap.
func (t *Transport) Launch(ctx context.Context, slots []int64) error {
	t.bb = probe.StartBadabing(t.sim, t.entry, t.demux, t.flow, t.cfg, slots)
	return nil
}

// Now returns the simulator's virtual time.
func (t *Transport) Now() time.Duration { return t.sim.Now() }

// AdvanceTo runs the event loop up to virtual time tt. The simulator runs
// to completion of the requested window; cancellation is only observed
// between windows.
func (t *Transport) AdvanceTo(ctx context.Context, tt time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.sim.Run(tt)
	return nil
}

// Observations returns the per-probe outcomes so far, in the prober's
// buffer, which the next call refills. Simulated probes are never
// invalid: virtual pacing is exact.
func (t *Transport) Observations() ([]badabing.ProbeObs, map[int64]bool) {
	if t.bb == nil {
		return nil, nil
	}
	return t.bb.Observations(), nil
}

// Close is a no-op; the simulator owns no external resources.
func (t *Transport) Close() error { return nil }

// Badabing exposes the underlying prober (nil before Launch), e.g. for
// packet-count assertions in tests.
func (t *Transport) Badabing() *probe.Badabing { return t.bb }
