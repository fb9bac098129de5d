// Package capture provides ground-truth measurement of the simulated
// bottleneck, standing in for the Endace DAG passive-capture cards of the
// paper's testbed. A Monitor taps the bottleneck link and records every
// drop, a periodically sampled queue-length time series, and per-kind
// packet counts; from these it extracts loss episodes and the true loss
// characteristics (episode frequency F and mean duration D) that the
// probe-based estimates are judged against.
package capture

import (
	"time"

	"badabing/internal/simnet"
	"badabing/internal/stats"
)

// Episode is a loss episode: a maximal period during which the bottleneck
// buffer is dropping packets (paper §3, Figure 2).
type Episode struct {
	Start time.Duration // time of the first drop
	End   time.Duration // time of the last drop
	Drops int           // packets lost during the episode
}

// Duration returns the episode length.
func (e Episode) Duration() time.Duration { return e.End - e.Start }

// QueueSample is one point of the queue-length time series, with occupancy
// expressed as drain time (the y axis of the paper's Figures 4–6 and 8).
type QueueSample struct {
	T     time.Duration
	Delay time.Duration
}

// Config parameterizes a Monitor.
type Config struct {
	// SampleInterval is the spacing of queue-length samples.
	// Default 1 ms. Zero-cost if Samples are never read.
	SampleInterval time.Duration
	// MaxGap merges drops into one episode when they are closer than
	// this, regardless of queue level. Default 30 ms — well below the
	// multi-second spacing between episodes in all paper scenarios.
	MaxGap time.Duration
	// HighWater is the queue fraction above which a gap between drops
	// is still inside the same episode (the paper's Harpoon
	// delineation: delays within 10 ms of the 100 ms maximum, i.e.
	// 0.9). Default 0.9.
	HighWater float64
	// Horizon stops queue sampling after this time. Zero means no
	// sampling at all unless SampleInterval is set and Start is called
	// with a horizon.
	Horizon time.Duration
}

func (c *Config) applyDefaults() {
	if c.SampleInterval == 0 {
		c.SampleInterval = time.Millisecond
	}
	if c.MaxGap == 0 {
		c.MaxGap = 30 * time.Millisecond
	}
	if c.HighWater == 0 {
		c.HighWater = 0.9
	}
}

// Monitor observes one link and accumulates ground truth. Attach it with
// Attach; it implements simnet.Tap.
type Monitor struct {
	sim  *simnet.Sim
	link *simnet.Link
	cfg  Config

	episodes []Episode
	open     bool
	cur      Episode
	minGapQ  int // minimum queue bytes seen since the last drop

	samples []QueueSample
	sampler *simnet.Timer

	arrivals map[simnet.Kind]uint64
	drops    map[simnet.Kind]uint64

	flowArrivals map[uint64]uint64
	flowDrops    map[uint64]uint64
}

// Attach creates a Monitor on link and registers it as a tap. If
// cfg.Horizon is positive, queue sampling runs from now until the horizon.
func Attach(sim *simnet.Sim, link *simnet.Link, cfg Config) *Monitor {
	cfg.applyDefaults()
	m := &Monitor{
		sim:          sim,
		link:         link,
		cfg:          cfg,
		arrivals:     make(map[simnet.Kind]uint64),
		drops:        make(map[simnet.Kind]uint64),
		flowArrivals: make(map[uint64]uint64),
		flowDrops:    make(map[uint64]uint64),
	}
	link.AddTap(m)
	if cfg.Horizon > 0 {
		m.sampler = sim.NewTimer(m.sample)
		m.sampler.Reset(cfg.SampleInterval)
	}
	return m
}

func (m *Monitor) sample() {
	m.samples = append(m.samples, QueueSample{T: m.sim.Now(), Delay: m.link.QueueDelay()})
	if m.sim.Now() < m.cfg.Horizon {
		m.sampler.Reset(m.cfg.SampleInterval)
	}
}

// Arrive implements simnet.Tap.
func (m *Monitor) Arrive(_ time.Duration, p *simnet.Packet, _ int) {
	m.arrivals[p.Kind]++
	m.flowArrivals[p.Flow]++
}

// Depart implements simnet.Tap.
func (m *Monitor) Depart(_ time.Duration, _ *simnet.Packet, queuedBytes int) {
	if m.open && queuedBytes < m.minGapQ {
		m.minGapQ = queuedBytes
	}
}

// Dropped implements simnet.Tap.
func (m *Monitor) Dropped(now time.Duration, p *simnet.Packet, _ simnet.Drop) {
	m.drops[p.Kind]++
	m.flowDrops[p.Flow]++
	if !m.open {
		m.open = true
		m.cur = Episode{Start: now, End: now, Drops: 1}
		m.minGapQ = m.link.QueueBytes()
		return
	}
	gap := now - m.cur.End
	highWater := int(m.cfg.HighWater * float64(m.link.QueueCap()))
	if gap <= m.cfg.MaxGap || m.minGapQ >= highWater {
		m.cur.End = now
		m.cur.Drops++
	} else {
		m.episodes = append(m.episodes, m.cur)
		m.cur = Episode{Start: now, End: now, Drops: 1}
	}
	m.minGapQ = m.link.QueueBytes()
}

// flushEpisodes returns all episodes including a still-open one.
func (m *Monitor) flushEpisodes() []Episode {
	eps := m.episodes
	if m.open {
		eps = append(append([]Episode(nil), eps...), m.cur)
	}
	return eps
}

// Episodes returns the extracted loss episodes so far.
func (m *Monitor) Episodes() []Episode { return m.flushEpisodes() }

// Samples returns the queue-length time series (only populated when the
// Monitor was attached with a positive Horizon).
func (m *Monitor) Samples() []QueueSample { return m.samples }

// Counts returns cumulative arrivals and drops for kind k.
func (m *Monitor) Counts(k simnet.Kind) (arrivals, drops uint64) {
	return m.arrivals[k], m.drops[k]
}

// Truth summarizes the ground-truth loss characteristics over an
// observation window, in the form the paper's tables report.
type Truth struct {
	// Frequency is the fraction of time slots of width Slot that
	// intersect a loss episode — the paper's congestion frequency F.
	Frequency float64
	// Duration summarizes episode durations (mean µ and σ appear in
	// the tables).
	Duration stats.Summary
	// Episodes is the number of loss episodes observed.
	Episodes int
	// EpisodeRate is episodes per second.
	EpisodeRate float64
	// LossRate is the router-centric loss rate L/(S+L) over all
	// packets.
	LossRate float64
	// Slot is the discretization used for Frequency.
	Slot time.Duration
}

// Truth computes ground truth over the window [0, horizon) using the given
// slot width (the paper discretizes at 5 ms).
func (m *Monitor) Truth(horizon, slot time.Duration) Truth {
	eps := m.flushEpisodes()
	t := Truth{Episodes: len(eps), Slot: slot}
	if horizon <= 0 || slot <= 0 {
		return t
	}
	nSlots := int64(horizon / slot)
	congested := int64(0)
	for _, e := range eps {
		first := int64(e.Start / slot)
		last := int64(e.End / slot)
		if last >= nSlots {
			last = nSlots - 1
		}
		congested += last - first + 1
		t.Duration.AddDuration(e.Duration())
	}
	t.Frequency = float64(congested) / float64(nSlots)
	t.EpisodeRate = float64(len(eps)) / horizon.Seconds()
	var arr, drop uint64
	for _, k := range []simnet.Kind{simnet.Data, simnet.Ack, simnet.Probe} {
		a, d := m.Counts(k)
		arr += a
		drop += d
	}
	if arr > 0 {
		t.LossRate = float64(drop) / float64(arr)
	}
	return t
}

// FlowLossRate returns the end-to-end loss rate of one flow — the paper's
// §3 second definition, counting only that flow's packets. ok is false if
// the flow was never seen.
func (m *Monitor) FlowLossRate(flow uint64) (rate float64, ok bool) {
	arr := m.flowArrivals[flow]
	if arr == 0 {
		return 0, false
	}
	return float64(m.flowDrops[flow]) / float64(arr), true
}

// LosslessFlows counts flows that sent at least minPackets and lost
// nothing, along with the total number of such active flows. The paper's
// §3 observation — "during a period where the router-centric loss rate is
// non-zero, there may be flows that do not lose any packets" — is this
// quantity being nonzero while the link drops.
func (m *Monitor) LosslessFlows(minPackets uint64) (lossless, active int) {
	for flow, arr := range m.flowArrivals {
		if arr < minPackets {
			continue
		}
		active++
		if m.flowDrops[flow] == 0 {
			lossless++
		}
	}
	return lossless, active
}

// CongestedSlots returns a bitmap over [0,horizon) at the given slot width
// where true marks slots intersecting a loss episode. This is the oracle
// series Yi of the paper's §5.2.2, used to validate estimator consistency.
func (m *Monitor) CongestedSlots(horizon, slot time.Duration) []bool {
	n := int(horizon / slot)
	out := make([]bool, n)
	for _, e := range m.flushEpisodes() {
		first := int(e.Start / slot)
		last := int(e.End / slot)
		for i := first; i <= last && i < n; i++ {
			if i >= 0 {
				out[i] = true
			}
		}
	}
	return out
}
