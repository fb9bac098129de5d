package probe

import (
	"math/rand"
	"time"

	"badabing/internal/simnet"
	"badabing/internal/stats"
)

// ZingConfig parameterizes the ZING-style Poisson prober (§4): UDP probe
// packets at Poisson-modulated intervals with a fixed mean rate.
type ZingConfig struct {
	// Mean is the mean probe interval (the paper uses 100 ms / 10 Hz
	// and 50 ms / 20 Hz).
	Mean time.Duration
	// PacketSize in bytes (the paper uses 256 B at 10 Hz, 64 B at
	// 20 Hz).
	PacketSize int
	// Flight is the number of packets per probe event. Default 1.
	Flight int
	// Horizon stops probing at this virtual time.
	Horizon time.Duration
	// Seed for the Poisson process.
	Seed int64
}

func (c *ZingConfig) applyDefaults() {
	if c.Mean == 0 {
		c.Mean = 100 * time.Millisecond
	}
	if c.PacketSize == 0 {
		c.PacketSize = 256
	}
	if c.Flight == 0 {
		c.Flight = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Zing drives Poisson-modulated probing on a simulated path.
type Zing struct {
	cfg    ZingConfig
	prober *Prober
	next   int64
}

// StartZing begins probing immediately.
func StartZing(sim *simnet.Sim, d *simnet.Dumbbell, flow uint64, cfg ZingConfig) *Zing {
	return StartZingAt(sim, d.Bottleneck, d.FwdDemux, flow, cfg)
}

// StartZingAt is the topology-agnostic form.
func StartZingAt(sim *simnet.Sim, entry *simnet.Link, demux *simnet.Demux, flow uint64, cfg ZingConfig) *Zing {
	cfg.applyDefaults()
	z := &Zing{
		cfg:    cfg,
		prober: NewProber(sim, entry, flow, cfg.PacketSize, 30*time.Microsecond),
	}
	demux.Register(flow, z.prober.Receiver())
	rng := rand.New(rand.NewSource(cfg.Seed))
	var tick *simnet.Timer
	tick = sim.NewTimer(func() {
		if sim.Now() >= cfg.Horizon {
			return
		}
		z.prober.SendProbe(z.next, cfg.Flight)
		z.next++
		tick.Reset(stats.Exp(rng, cfg.Mean))
	})
	tick.Reset(stats.Exp(rng, cfg.Mean))
	return z
}

// ZingReport carries the loss characteristics a Poisson prober can
// estimate, following the Zhang et al. definitions the paper applies in
// §4.2: loss frequency as the fraction of lost probes, and loss episodes
// as maximal runs of consecutive lost probes whose duration is the time
// spanned by the run.
type ZingReport struct {
	Probes    int
	Lost      int
	Frequency float64
	Duration  stats.Summary
}

// Results returns the raw per-probe outcomes in send order. Call after
// the simulation has drained.
func (z *Zing) Results() []Obs { return z.prober.Results() }

// Report computes the estimates. Call after the simulation has drained.
func (z *Zing) Report() ZingReport {
	res := z.prober.Results()
	rep := ZingReport{Probes: len(res)}
	var runStart time.Duration
	var runLast time.Duration
	inRun := false
	endRun := func() {
		if inRun {
			rep.Duration.AddDuration(runLast - runStart)
			inRun = false
		}
	}
	for _, o := range res {
		lost := o.Lost > 0
		if lost {
			rep.Lost++
			if !inRun {
				inRun = true
				runStart = o.T
			}
			runLast = o.T
		} else {
			endRun()
		}
	}
	endRun()
	if rep.Probes > 0 {
		rep.Frequency = float64(rep.Lost) / float64(rep.Probes)
	}
	return rep
}
