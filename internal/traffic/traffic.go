// Package traffic implements the paper's three cross-traffic scenarios as
// workload generators over simnet:
//
//   - infinite TCP sources (§4.2, Figure 4) — see NewInfiniteTCP;
//   - Iperf-like constant-bit-rate traffic with randomly spaced,
//     (approximately) constant-duration loss episodes (§4.2, Figure 5) —
//     see CBR and NewEpisodeInjector;
//   - Harpoon-like self-similar web traffic (§4.2, Figure 6) — see
//     NewWeb.
//
// Flow identifiers are allocated from an IDSpace so that cross traffic,
// probe traffic and transport acknowledgments never collide.
package traffic

import (
	"math/rand"
	"time"

	"badabing/internal/simnet"
	"badabing/internal/stats"
	"badabing/internal/tcp"
)

// IDSource hands out flow identifiers. Implementations may hook
// allocation, e.g. to register each new flow on a hop-local demux.
type IDSource interface {
	Next() uint64
}

// IDSpace is the basic IDSource: a counter.
type IDSpace struct{ next uint64 }

// NewIDSpace returns an allocator whose first id is base.
func NewIDSpace(base uint64) *IDSpace { return &IDSpace{next: base} }

// Next returns a fresh flow id.
func (s *IDSpace) Next() uint64 { s.next++; return s.next }

// CBR is a constant-bit-rate packet source.
type CBR struct {
	sim   *simnet.Sim
	link  *simnet.Link
	flow  uint64
	size  int
	ival  time.Duration
	timer *simnet.Timer
	sent  uint64
}

// NewCBR creates a CBR source sending size-byte packets into link at the
// given rate, starting immediately. Packets are evenly spaced.
func NewCBR(sim *simnet.Sim, link *simnet.Link, flow uint64, rate simnet.Rate, size int) *CBR {
	c := &CBR{
		sim:  sim,
		link: link,
		flow: flow,
		size: size,
		ival: time.Duration(int64(size) * 8 * int64(time.Second) / int64(rate)),
	}
	c.timer = sim.NewTimer(c.tick)
	c.timer.Reset(0)
	return c
}

func (c *CBR) tick() {
	c.link.Send(&simnet.Packet{
		ID:   c.sim.NextPacketID(),
		Flow: c.flow,
		Kind: simnet.Data,
		Size: c.size,
		Seq:  int64(c.sent),
		Sent: c.sim.Now(),
	})
	c.sent++
	c.timer.Reset(c.ival)
}

// Stop halts the source: no further packets are sent.
func (c *CBR) Stop() { c.timer.Stop() }

// Sent returns how many packets have been sent.
func (c *CBR) Sent() uint64 { return c.sent }

// InfiniteTCP is the paper's first scenario: n long-lived TCP flows
// sharing the bottleneck.
type InfiniteTCP struct {
	Flows []*tcp.Flow
}

// NewInfiniteTCP starts n infinite TCP sources on the dumbbell with the
// paper's parameters (1500-byte segments, 256-segment receive windows).
// Flow starts are staggered over the first two seconds, as real host
// stacks would be, so startup slow-starts do not align into one giant
// synchronized overshoot.
func NewInfiniteTCP(sim *simnet.Sim, d *simnet.Dumbbell, ids *IDSpace, n int) *InfiniteTCP {
	w := &InfiniteTCP{}
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		id := ids.Next()
		start := time.Duration(rng.Int63n(int64(2 * time.Second)))
		sim.Schedule(start, func() {
			f := tcp.Start(sim, id, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, tcp.Config{
				SendJitter: 200 * time.Microsecond,
			})
			w.Flows = append(w.Flows, f)
		})
	}
	return w
}

// EpisodeInjectorConfig parameterizes the Iperf-like scenario: a steady
// base load plus overload bursts engineered to produce loss episodes of
// approximately the requested durations, randomly spaced with exponential
// inter-arrival times.
type EpisodeInjectorConfig struct {
	// Durations are the target loss-episode durations; each episode
	// picks one uniformly at random. The paper uses {68 ms} (Table 4)
	// and {50, 100, 150 ms} (Table 5).
	Durations []time.Duration
	// MeanSpacing is the mean time between episode starts. Default 10 s.
	MeanSpacing time.Duration
	// BaseUtilization is the fraction of the bottleneck consumed by the
	// steady CBR component. Default 0.5.
	BaseUtilization float64
	// Overload is the ratio of total input rate to bottleneck rate
	// during a burst. Default 2.0.
	Overload float64
	// PacketSize for both components. Default 1500.
	PacketSize int
	// Seed for the spacing/duration RNG.
	Seed int64
}

func (c *EpisodeInjectorConfig) applyDefaults() {
	if len(c.Durations) == 0 {
		c.Durations = []time.Duration{68 * time.Millisecond}
	}
	if c.MeanSpacing == 0 {
		c.MeanSpacing = 10 * time.Second
	}
	if c.BaseUtilization == 0 {
		c.BaseUtilization = 0.5
	}
	if c.Overload == 0 {
		c.Overload = 2.0
	}
	if c.PacketSize == 0 {
		c.PacketSize = 1500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// EpisodeInjector drives the CBR-with-episodes workload.
type EpisodeInjector struct {
	sim  *simnet.Sim
	link *simnet.Link
	cfg  EpisodeInjectorConfig
	rng  *rand.Rand
	ids  IDSource
	base *CBR

	episodes int
	stopped  bool
}

// NewEpisodeInjector starts the base CBR load and schedules the first
// burst. Bursts are sized so that, after the time needed to fill the
// remaining buffer, the queue stays in overflow for the sampled duration.
func NewEpisodeInjector(sim *simnet.Sim, d *simnet.Dumbbell, ids *IDSpace, cfg EpisodeInjectorConfig) *EpisodeInjector {
	return NewEpisodeInjectorAt(sim, d.Bottleneck, ids, cfg)
}

// NewEpisodeInjectorAt is the topology-agnostic form: the workload
// congests the given link, which may be any hop of a multi-hop chain.
func NewEpisodeInjectorAt(sim *simnet.Sim, link *simnet.Link, ids IDSource, cfg EpisodeInjectorConfig) *EpisodeInjector {
	cfg.applyDefaults()
	inj := &EpisodeInjector{
		sim:  sim,
		link: link,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		ids:  ids,
	}
	bottleneck := link.Rate()
	baseRate := simnet.Rate(float64(bottleneck) * cfg.BaseUtilization)
	inj.base = NewCBR(sim, link, ids.Next(), baseRate, cfg.PacketSize)
	inj.scheduleNext()
	return inj
}

// Episodes returns how many bursts have been injected so far.
func (e *EpisodeInjector) Episodes() int { return e.episodes }

// Stop halts both the base load and future bursts.
func (e *EpisodeInjector) Stop() {
	e.stopped = true
	e.base.Stop()
}

func (e *EpisodeInjector) scheduleNext() {
	gap := stats.Exp(e.rng, e.cfg.MeanSpacing)
	// Keep episodes separated enough for the queue to drain fully:
	// below this floor, consecutive bursts would merge.
	if min := 2 * time.Second; gap < min {
		gap = min
	}
	e.sim.Schedule(gap, e.burst)
}

func (e *EpisodeInjector) burst() {
	if e.stopped {
		return
	}
	e.episodes++
	target := e.cfg.Durations[e.rng.Intn(len(e.cfg.Durations))]
	bottleneck := e.link.Rate()
	// Extra input rate during the burst, beyond the base load.
	extra := simnet.Rate(float64(bottleneck) * (e.cfg.Overload - e.cfg.BaseUtilization))
	// The queue's drain-time occupancy grows at (overload-1) seconds
	// per second, so filling the (empty) buffer takes
	// queueDur/(overload-1); the episode then lasts until the burst
	// ends.
	queueDur := bottleneck.TxTime(e.link.QueueCap())
	fill := time.Duration(float64(queueDur) / (e.cfg.Overload - 1))
	on := fill + target

	flow := e.ids.Next()
	ival := time.Duration(int64(e.cfg.PacketSize) * 8 * int64(time.Second) / int64(extra))
	start := e.sim.Now()
	e.sim.ScheduleEach(int(on/ival), func(i int) time.Duration {
		return start + time.Duration(i)*ival
	}, func(i int) {
		e.link.Send(&simnet.Packet{
			ID:   e.sim.NextPacketID(),
			Flow: flow,
			Kind: simnet.Data,
			Size: e.cfg.PacketSize,
			Seq:  int64(i),
			Sent: e.sim.Now(),
		})
	})
	e.scheduleNext()
}
