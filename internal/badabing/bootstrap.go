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

// Recorder wraps an Accumulator and retains what resampling needs of the
// outcome sequence, so that confidence intervals can be bootstrapped
// afterwards. Use it in place of a bare Accumulator when interval
// estimates are wanted; memory cost is 16 bytes per experiment.
type Recorder struct {
	Acc Accumulator
	// cum[i] holds Acc's running tallies after the first i outcomes
	// (cum[0] before the first), so the tally of outcomes [i, j) is
	// cum[j] − cum[i].
	cum []tally
}

// tally is the part of an Accumulator's counts the resampled estimators
// read: z, c01, c10 and c11. Counts wrap at 2³², but the difference of
// two rows is exact for any block of fewer than 2³² outcomes.
type tally [4]uint32

func (a *Accumulator) tally() tally {
	return tally{uint32(a.z), uint32(a.c01), uint32(a.c10), uint32(a.c11)}
}

// Add records an experiment outcome (2 or 3 bits, in slot order).
func (r *Recorder) Add(bits []bool) {
	if len(r.cum) == 0 {
		r.cum = append(r.cum, r.Acc.tally())
	}
	r.Acc.Add(bits)
	r.cum = append(r.cum, r.Acc.tally())
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
	n := len(r.cum) - 1
	if n <= 0 {
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
		// Sum the blocks' tallies, then estimate once. The rows are
		// Acc's own tallies, §5.5 pairs included, so each resample is
		// estimated exactly as the point estimate is; Frequency and
		// Duration read no other count.
		var sum [4]int
		for filled := 0; filled < n; filled += block {
			start := rng.Intn(n - block + 1)
			lo, hi := &r.cum[start], &r.cum[start+min(block, n-filled)]
			for k := range sum {
				sum[k] += int(hi[k] - lo[k])
			}
		}
		acc := Accumulator{Slot: r.Acc.Slot, m: n, z: sum[0], c01: sum[1], c10: sum[2], c11: sum[3]}
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
