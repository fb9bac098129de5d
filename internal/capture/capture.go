// Package capture provides ground-truth measurement of a bottleneck,
// standing in for the Endace DAG passive-capture cards of the paper's
// testbed. A Delineator turns a queue's arrivals, departures and drops
// into loss episodes and the true loss characteristics (episode frequency
// F and mean duration D) that the probe-based estimates are judged
// against. A Monitor feeds one from a simulated link's tap and samples the
// link's queue-length time series; offline traces and the live gateway
// feed their own.
package capture

import (
	"time"

	"badabing/internal/simnet"
)

// SampleInterval is the spacing of a Monitor's queue-length samples.
const SampleInterval = time.Millisecond

// QueueSample is one point of the queue-length time series, with occupancy
// expressed as drain time (the y axis of the paper's Figures 4–6 and 8).
type QueueSample struct {
	T     time.Duration
	Delay time.Duration
}

// Config parameterizes a Monitor.
type Config struct {
	// Horizon stops queue sampling after this time. Zero means no
	// sampling.
	Horizon time.Duration
}

// Monitor observes one link and accumulates ground truth: it is a
// Delineator fed by the link's tap, plus the queue sampler. Attach it with
// Attach; it implements simnet.Tap.
type Monitor struct {
	*Delineator
	sim     *simnet.Sim
	link    *simnet.Link
	horizon time.Duration
	samples []QueueSample
	sampler *simnet.Timer
}

// Attach creates a Monitor on link and registers it as a tap. If
// cfg.Horizon is positive, queue sampling runs from now until the horizon.
func Attach(sim *simnet.Sim, link *simnet.Link, cfg Config) *Monitor {
	m := &Monitor{
		Delineator: NewDelineator(link.QueueCap()),
		sim:        sim,
		link:       link,
		horizon:    cfg.Horizon,
	}
	link.AddTap(m)
	if cfg.Horizon > 0 {
		m.sampler = sim.NewTimer(m.sample)
		m.sampler.Reset(SampleInterval)
	}
	return m
}

func (m *Monitor) sample() {
	m.samples = append(m.samples, QueueSample{T: m.sim.Now(), Delay: m.link.QueueDelay()})
	if m.sim.Now() < m.horizon {
		m.sampler.Reset(SampleInterval)
	}
}

// Arrive implements simnet.Tap.
func (m *Monitor) Arrive(_ time.Duration, _ *simnet.Packet, queuedBytes int) {
	m.Delineator.Arrive(queuedBytes)
}

// Depart implements simnet.Tap.
func (m *Monitor) Depart(_ time.Duration, _ *simnet.Packet, queuedBytes int) {
	m.Delineator.Depart(queuedBytes)
}

// Dropped implements simnet.Tap.
func (m *Monitor) Dropped(now time.Duration, _ *simnet.Packet, _ simnet.Drop) {
	m.Drop(now)
}

// Samples returns the queue-length time series (only populated when the
// Monitor was attached with a positive Horizon).
func (m *Monitor) Samples() []QueueSample { return m.samples }
