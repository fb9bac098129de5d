package badabing

import (
	"math"
	"sort"
	"time"
)

// RecommendedMarker returns the §6.2 parameter choices for a given probe
// probability p and slot width: τ is the expected time between probes plus
// one standard deviation (probe gaps are geometric with mean 1/p and
// standard deviation sqrt(1−p)/p slots), and α follows the paper's table:
// 0.2 for p ≤ 0.1, 0.1 for p ≤ 0.5, 0.5 above.
func RecommendedMarker(p float64, slot time.Duration) MarkerConfig {
	if slot == 0 {
		slot = DefaultSlot
	}
	mean := 1 / p
	sd := math.Sqrt(1-p) / p
	cfg := MarkerConfig{Tau: time.Duration((mean + sd) * float64(slot))}
	switch {
	case p <= 0.1:
		cfg.Alpha = 0.2
	case p <= 0.5:
		cfg.Alpha = 0.1
	default:
		cfg.Alpha = 0.5
	}
	return cfg
}

// ProbeObs is the raw observation for one probe (a bunch of 1..N tightly
// spaced packets sent in one slot), as assembled by a receiver.
type ProbeObs struct {
	// Slot is the slot index the probe was sent in.
	Slot int64
	// SentPackets and LostPackets count the probe's packets.
	SentPackets, LostPackets int
	// OWD is the maximum one-way delay among the probe's received
	// packets. For fully lost probes it is the delay of the most
	// recent previously received packet, supplied by the assembler;
	// zero means unknown.
	OWD time.Duration
	// T is the probe's send time.
	T time.Duration
}

// Lost reports whether any packet of the probe was lost.
func (o ProbeObs) Lost() bool { return o.LostPackets > 0 }

// MarkerConfig holds the §6.1 congestion-marking parameters.
type MarkerConfig struct {
	// Alpha is the queue high-water fraction: a probe whose one-way
	// queueing delay exceeds (1−Alpha)×OWDmax counts as congested if
	// it is also near a loss in time. The paper explores 0.025–0.2.
	Alpha float64
	// Tau is the time window around an observed packet loss within
	// which high-delay probes are marked congested. The paper's rule
	// of thumb: expected time between probes plus one standard
	// deviation.
	Tau time.Duration
	// MaxEstimates bounds the OWDmax running-estimate window; the mean
	// of the last MaxEstimates loss-time delays is the OWDmax
	// reference, which filters spurious end-host losses. Default 16.
	MaxEstimates int
}

func (c *MarkerConfig) applyDefaults() {
	if c.MaxEstimates == 0 {
		c.MaxEstimates = 16
	}
}

// Mark classifies each probe as congested or not, per §6.1:
//
//   - a probe that lost any packet is congested;
//   - a probe within Tau of a loss indication whose relative one-way
//     delay exceeds (1−Alpha)×OWDmax is congested;
//   - everything else is not congested.
//
// Delays are made relative by subtracting the minimum observed OWD
// (removing propagation and clock offset, which is legitimate as long as
// skew is negligible over the run — see §7). OWDmax is the mean of the
// delays observed at loss times, a FIFO-consistent estimate of the full
// queue's depth.
//
// Mark operates on the complete observation set because probes *preceding*
// a loss by less than Tau also qualify. Observations need not be sorted.
func Mark(obs []ProbeObs, cfg MarkerConfig) []bool {
	cfg.applyDefaults()
	out := make([]bool, len(obs))
	if len(obs) == 0 {
		return out
	}

	// Baseline: minimum OWD across probes with a known delay.
	var minOWD time.Duration
	first := true
	for _, o := range obs {
		if o.OWD == 0 {
			continue
		}
		if first || o.OWD < minOWD {
			minOWD = o.OWD
			first = false
		}
	}

	// Loss times, sorted, and the OWDmax estimate from delays at loss.
	var lossTimes []time.Duration
	var est []time.Duration
	idx := make([]int, 0, len(obs))
	for i := range obs {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return obs[idx[a]].T < obs[idx[b]].T })
	for _, i := range idx {
		o := obs[i]
		if o.Lost() {
			lossTimes = append(lossTimes, o.T)
			if o.OWD > 0 {
				est = append(est, o.OWD-minOWD)
				if len(est) > cfg.MaxEstimates {
					est = est[1:]
				}
			}
		}
	}
	var owdMax time.Duration
	if len(est) > 0 {
		var sum time.Duration
		for _, e := range est {
			sum += e
		}
		owdMax = sum / time.Duration(len(est))
	}
	threshold := time.Duration((1 - cfg.Alpha) * float64(owdMax))

	for i, o := range obs {
		if o.Lost() {
			out[i] = true
			continue
		}
		if owdMax == 0 || o.OWD == 0 {
			continue
		}
		if o.OWD-minOWD < threshold {
			continue
		}
		out[i] = nearWithin(lossTimes, o.T, cfg.Tau)
	}
	return out
}

// nearWithin reports whether sorted ts contains a value within d of t.
func nearWithin(ts []time.Duration, t, d time.Duration) bool {
	if len(ts) == 0 {
		return false
	}
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	if i < len(ts) && ts[i]-t <= d {
		return true
	}
	if i > 0 && t-ts[i-1] <= d {
		return true
	}
	return false
}

// Assemble is the one experiment-assembly loop: it groups per-probe
// congestion bits into experiment outcomes and hands each, in plan order,
// to observe together with its start slot. plans is the experiment
// schedule; marked maps slot index to the congestion bit of the probe
// sent in that slot (from Mark). Experiments any of whose probes are
// missing from marked are skipped and counted in the returned number.
// Every batch, streaming and control-channel estimate is fed through it.
//
// The bits slice is reused from one outcome to the next; observe must
// not retain it.
func Assemble(plans []Plan, marked map[int64]bool, observe func(slot int64, bits []bool)) (skipped int) {
	var scratch [3]bool
outer:
	for _, pl := range plans {
		bits := scratch[:pl.Probes]
		for j := range bits {
			b, present := marked[pl.Slot+int64(j)]
			if !present {
				skipped++
				continue outer
			}
			bits[j] = b
		}
		observe(pl.Slot, bits)
	}
	return skipped
}
