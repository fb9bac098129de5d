package badabing

import (
	"math/rand"
	"sort"
)

// This file implements the paper's §8 future-work item: "estimate the
// variability of the estimates of congestion frequency and duration
// themselves directly from the measured data, under a minimal set of
// statistical assumptions on the congestion process."
//
// The approach is a moving-block bootstrap over the sequence of recorded
// experiment outcomes. Because outcomes close in time are dependent (they
// may sample the same congestion episode), experiments are resampled in
// contiguous blocks rather than singly, which preserves the short-range
// dependence structure without modelling it.

// outcome is a compact record of one experiment for resampling.
type outcome struct {
	bits uint8 // packed, key3-style; for basic experiments bit2 is unused
	ext  bool
}

// Recorder wraps an Accumulator and retains the outcome sequence so that
// confidence intervals can be bootstrapped afterwards. Use it in place of
// a bare Accumulator when interval estimates are wanted; memory cost is
// two bytes per experiment.
type Recorder struct {
	Acc Accumulator
	seq []outcome
}

// Add records an experiment outcome (2 or 3 bits, in slot order).
func (r *Recorder) Add(bits []bool) {
	r.Acc.Add(bits)
	var o outcome
	switch len(bits) {
	case 2:
		o.bits = key3(bits[0], bits[1], false)
	case 3:
		o.bits = key3(bits[0], bits[1], bits[2])
		o.ext = true
	}
	r.seq = append(r.seq, o)
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Level is the nominal coverage, e.g. 0.95.
	Level float64 `json:"level"`
}

// BootstrapConfig controls the resampling.
type BootstrapConfig struct {
	// Resamples: default 200.
	Resamples int
	// BlockLen is the moving-block length in experiments. Default 50 —
	// a few episode lengths at typical p, enough to keep within-episode
	// dependence inside blocks.
	BlockLen int
	// Level: default 0.95.
	Level float64
	// Seed for the resampling RNG.
	Seed int64
}

func (c *BootstrapConfig) applyDefaults() {
	if c.Resamples == 0 {
		c.Resamples = 200
	}
	if c.BlockLen == 0 {
		c.BlockLen = 50
	}
	if c.Level == 0 {
		c.Level = 0.95
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Bootstrap returns percentile confidence intervals for the frequency and
// (basic-algorithm) duration estimators. durOK is false when too few
// resamples produced a defined duration estimate for an interval to be
// meaningful.
func (r *Recorder) Bootstrap(cfg BootstrapConfig) (freq Interval, dur Interval, durOK bool) {
	cfg.applyDefaults()
	n := len(r.seq)
	if n == 0 {
		return Interval{Level: cfg.Level}, Interval{Level: cfg.Level}, false
	}
	block := cfg.BlockLen
	if block > n {
		block = n
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	freqs := make([]float64, 0, cfg.Resamples)
	durs := make([]float64, 0, cfg.Resamples)
	for b := 0; b < cfg.Resamples; b++ {
		// Each resample is estimated exactly as the point estimate
		// is, §5.5 pairs included.
		acc := Accumulator{Slot: r.Acc.Slot, ExtendedPairs: r.Acc.ExtendedPairs}
		for filled := 0; filled < n; filled += block {
			start := rng.Intn(n - block + 1)
			for i := 0; i < block && filled+i < n; i++ {
				o := r.seq[start+i]
				if o.ext {
					acc.AddExtended(o.bits&4 != 0, o.bits&2 != 0, o.bits&1 != 0)
				} else {
					acc.AddBasic(o.bits&4 != 0, o.bits&2 != 0)
				}
			}
		}
		freqs = append(freqs, acc.Frequency())
		if d, ok := acc.Duration(); ok {
			durs = append(durs, d.Seconds())
		}
	}
	freq = percentileInterval(freqs, cfg.Level)
	if len(durs) >= cfg.Resamples/2 {
		dur = percentileInterval(durs, cfg.Level)
		durOK = true
	} else {
		dur = Interval{Level: cfg.Level}
	}
	return freq, dur, durOK
}

func percentileInterval(xs []float64, level float64) Interval {
	sort.Float64s(xs)
	alpha := (1 - level) / 2
	lo := int(alpha*float64(len(xs)) + 0.5)
	hi := int((1-alpha)*float64(len(xs)) + 0.5)
	if hi >= len(xs) {
		hi = len(xs) - 1
	}
	return Interval{Lo: xs[lo], Hi: xs[hi], Level: level}
}
