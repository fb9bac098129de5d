package probe

import (
	"fmt"
	"math/rand"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/simnet"
	"badabing/internal/stats"
)

// ZingConfig parameterizes the ZING-style Poisson prober (§4): one-packet
// UDP probes at Poisson-modulated intervals with a fixed mean rate.
type ZingConfig struct {
	// Mean is the mean probe interval (the paper uses 100 ms / 10 Hz
	// and 50 ms / 20 Hz).
	Mean time.Duration
	// PacketSize in bytes (the paper uses 256 B at 10 Hz, 64 B at
	// 20 Hz).
	PacketSize int
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
	if c.Seed == 0 {
		c.Seed = 1
	}
}

var errLongDraw = fmt.Errorf("probe: zing draw exceeds %d probes", badabing.MaxSlots)

// ZingEpochs returns a Poisson prober's send epochs as offsets from its
// start: the running sums of exponential gaps of the given mean, drawn
// from seed, that fall before horizon. The simulated prober and the live
// sender both send at these epochs, and the live collector redraws them
// from the values every probe header carries. Those values come off the
// network, so a non-positive mean or horizon is an error, and so is a
// draw of more than badabing.MaxSlots epochs; a horizon of more than
// MaxSlots mean gaps is refused without drawing.
func ZingEpochs(seed int64, mean, horizon time.Duration) ([]time.Duration, error) {
	if mean <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("probe: zing draw needs a positive mean gap and horizon, got %v and %v", mean, horizon)
	}
	if horizon/mean > badabing.MaxSlots {
		return nil, errLongDraw
	}
	rng := rand.New(rand.NewSource(seed))
	var epochs []time.Duration
	// A sum that overflows goes negative: it lies past any horizon.
	for at := stats.Exp(rng, mean); 0 <= at && at < horizon; at += stats.Exp(rng, mean) {
		if len(epochs) == badabing.MaxSlots {
			return nil, errLongDraw
		}
		epochs = append(epochs, at)
	}
	return epochs, nil
}

// Zing drives Poisson-modulated probing on a simulated path.
type Zing struct {
	prober *Prober
}

// StartZing begins probing at the current virtual time, one probe at each
// epoch ZingEpochs draws before cfg.Horizon; a horizon already reached
// sends nothing. A draw longer than ZingEpochs allows panics, as
// badabing.MustSchedule does.
func StartZing(sim *simnet.Sim, d *simnet.Dumbbell, flow uint64, cfg ZingConfig) *Zing {
	cfg.applyDefaults()
	z := &Zing{prober: NewProber(sim, d.Bottleneck, flow, cfg.PacketSize)}
	d.FwdDemux.Register(flow, z.prober.Receiver())
	start := sim.Now()
	if cfg.Horizon <= start {
		return z
	}
	epochs, err := ZingEpochs(cfg.Seed, cfg.Mean, cfg.Horizon-start)
	if err != nil {
		panic(err)
	}
	next := 0
	var tick *simnet.Timer
	tick = sim.NewTimer(func() {
		z.prober.SendProbe(int64(next), 1)
		next++
		if next < len(epochs) {
			tick.Reset(start + epochs[next] - sim.Now())
		}
	})
	if len(epochs) > 0 {
		tick.Reset(epochs[0])
	}
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

// AnalyzeZing is the §4.2 analysis of n probes in send order: sent(i)
// gives the i-th probe's send time and whether it was lost. The simulated
// prober and the live collector both report through it.
func AnalyzeZing(n int, sent func(i int) (at time.Duration, lost bool)) ZingReport {
	rep := ZingReport{Probes: n}
	var runStart, runLast time.Duration
	inRun := false
	for i := 0; i < n; i++ {
		at, lost := sent(i)
		if !lost {
			if inRun {
				rep.Duration.AddDuration(runLast - runStart)
				inRun = false
			}
			continue
		}
		rep.Lost++
		if !inRun {
			inRun, runStart = true, at
		}
		runLast = at
	}
	if inRun {
		rep.Duration.AddDuration(runLast - runStart)
	}
	if n > 0 {
		rep.Frequency = float64(rep.Lost) / float64(n)
	}
	return rep
}

// Results returns the raw per-probe outcomes in send order. Call after
// the simulation has drained.
func (z *Zing) Results() []Obs { return z.prober.Results() }

// Report computes the estimates. Call after the simulation has drained.
func (z *Zing) Report() ZingReport {
	ps := z.prober.probes
	return AnalyzeZing(len(ps), func(i int) (time.Duration, bool) {
		return ps[i].at, ps[i].got < ps[i].sent
	})
}
