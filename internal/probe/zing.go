package probe

import (
	"fmt"
	"math/rand"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/simnet"
	"badabing/internal/stats"
)

// ZingConfig is the ZING draw (§4): one-packet UDP probes at
// Poisson-modulated epochs with a fixed mean gap, for a bounded duration.
// It is the one spec of the draw: the simulated prober and the live
// sender send at the epochs it gives, and every live probe header carries
// it, so the collector redraws them.
type ZingConfig struct {
	// Mean is the mean gap between probes (the paper uses 100 ms / 10 Hz
	// and 50 ms / 20 Hz). Default 100 ms.
	Mean time.Duration
	// Duration bounds the draw: probes go out at epochs before it,
	// counted from the prober's start.
	Duration time.Duration
	// Seed drives the Poisson process. The spec never rewrites it: the
	// simulated prober draws from 0 like any other seed, and a live
	// sender given 0 picks one from the clock.
	Seed int64
}

// WithDefaults returns the spec with an unset mean gap filled in.
func (c ZingConfig) WithDefaults() ZingConfig {
	if c.Mean == 0 {
		c.Mean = 100 * time.Millisecond
	}
	return c
}

var errLongDraw = fmt.Errorf("probe: zing draw exceeds %d probes", badabing.MaxSlots)

// Validate rejects a draw Epochs refuses. A live draw comes off the
// network in every probe header, so a non-positive mean gap or duration
// is an error, and so is a duration of more than badabing.MaxSlots mean
// gaps.
func (c ZingConfig) Validate() error {
	if c.Mean <= 0 || c.Duration <= 0 {
		return fmt.Errorf("probe: zing draw needs a positive mean gap and duration, got %v and %v", c.Mean, c.Duration)
	}
	if c.Duration/c.Mean > badabing.MaxSlots {
		return errLongDraw
	}
	return nil
}

// Epochs returns the send epochs as offsets from the prober's start: the
// running sums of exponential gaps of mean Mean, drawn from Seed, that
// fall before Duration. A spec Validate rejects is an error, and so is a
// draw of more than badabing.MaxSlots epochs.
func (c ZingConfig) Epochs() ([]time.Duration, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	var epochs []time.Duration
	// A sum that overflows goes negative: it lies past any duration.
	for at := stats.Exp(rng, c.Mean); 0 <= at && at < c.Duration; at += stats.Exp(rng, c.Mean) {
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

// StartZing begins probing at the current virtual time with packets of
// size bytes (the paper uses 256 B at 10 Hz, 64 B at 20 Hz), one probe at
// each epoch cfg draws; a non-positive duration sends nothing. A draw
// longer than Epochs allows panics, as badabing.MustSchedule does.
func StartZing(sim *simnet.Sim, d *simnet.Dumbbell, flow uint64, size int, cfg ZingConfig) *Zing {
	z := &Zing{prober: NewProber(sim, d.Bottleneck, flow, size)}
	d.FwdDemux.Register(flow, z.prober.Receiver())
	if cfg.Duration <= 0 {
		return z
	}
	epochs, err := cfg.WithDefaults().Epochs()
	if err != nil {
		panic(err)
	}
	start := sim.Now()
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
