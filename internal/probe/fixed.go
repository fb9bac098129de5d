package probe

import (
	"time"

	"badabing/internal/simnet"
)

// FixedConfig parameterizes the fixed-interval prober used for the §6.1
// probe-sensitivity experiments: probes of N tightly spaced packets every
// Interval, guaranteeing that some probes overlap every loss episode.
type FixedConfig struct {
	// Interval between probes. Default 10 ms (§6.1).
	Interval time.Duration
	// PacketsPerProbe is the bunch length (1–10 in Figure 7).
	PacketsPerProbe int
	// PacketSize: default 600.
	PacketSize int
	// PktGap within a probe: default 30 µs.
	PktGap time.Duration
	// Horizon stops probing at this virtual time.
	Horizon time.Duration
}

func (c *FixedConfig) applyDefaults() {
	if c.Interval == 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.PacketsPerProbe == 0 {
		c.PacketsPerProbe = 1
	}
	if c.PacketSize == 0 {
		c.PacketSize = 600
	}
	if c.PktGap == 0 {
		c.PktGap = 30 * time.Microsecond
	}
}

// Fixed drives fixed-interval probing on a simulated path.
type Fixed struct {
	cfg    FixedConfig
	prober *Prober
}

// StartFixed begins probing immediately.
func StartFixed(sim *simnet.Sim, d *simnet.Dumbbell, flow uint64, cfg FixedConfig) *Fixed {
	return StartFixedAt(sim, d.Bottleneck, d.FwdDemux, flow, cfg)
}

// StartFixedAt is the topology-agnostic form.
func StartFixedAt(sim *simnet.Sim, entry *simnet.Link, demux *simnet.Demux, flow uint64, cfg FixedConfig) *Fixed {
	cfg.applyDefaults()
	f := &Fixed{
		cfg:    cfg,
		prober: NewProber(sim, entry, flow, cfg.PacketSize, cfg.PktGap),
	}
	demux.Register(flow, f.prober.Receiver())
	var key int64
	var tick *simnet.Timer
	tick = sim.NewTimer(func() {
		if sim.Now() >= cfg.Horizon {
			return
		}
		f.prober.SendProbe(key, cfg.PacketsPerProbe)
		key++
		tick.Reset(cfg.Interval)
	})
	tick.Reset(0)
	return f
}

// Results returns the per-probe outcomes. Call after the simulation has
// drained.
func (f *Fixed) Results() []Obs { return f.prober.Results() }
