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
// a loss by less than Tau also qualify. Observations must be in send
// order (ascending T), as every transport and prober returns them.
func Mark(obs []ProbeObs, cfg MarkerConfig) []bool {
	var m Marker
	m.Reset(obs, cfg)
	out := make([]bool, len(obs))
	for i := range obs {
		out[i] = m.Congested(i)
	}
	return out
}

// Marker applies the §6.1 rule to single probes of one observation set.
// Reset draws the set's references — the delay baseline, OWDmax and the
// loss times — and Congested then marks any probe against them, so a
// caller that needs only some marks (the session harvester freezing the
// experiments a step feeds) gets exactly the bits Mark would give those
// probes without marking the rest. The zero value is ready for Reset.
type Marker struct {
	cfg       MarkerConfig
	obs       []ProbeObs
	minOWD    time.Duration
	owdMax    time.Duration
	threshold time.Duration
	losses    []int // indices of lost probes in obs, ascending
}

// Reset draws the §6.1 references from obs, which must be in send order
// (ascending T). It reuses the Marker's loss buffer, and obs is read, not
// copied, until the next Reset.
func (m *Marker) Reset(obs []ProbeObs, cfg MarkerConfig) {
	cfg.applyDefaults()
	m.cfg, m.obs = cfg, obs
	m.losses = m.losses[:0]

	// Baseline: minimum OWD across probes with a known delay.
	var minOWD time.Duration
	first := true
	for i, o := range obs {
		if o.Lost() {
			m.losses = append(m.losses, i)
		}
		if o.OWD == 0 {
			continue
		}
		if first || o.OWD < minOWD {
			minOWD = o.OWD
			first = false
		}
	}

	// OWDmax: the mean of the last MaxEstimates known delays at loss
	// times, relative to the baseline.
	var sum time.Duration
	n := 0
	for k := len(m.losses) - 1; k >= 0 && n < cfg.MaxEstimates; k-- {
		if o := obs[m.losses[k]]; o.OWD > 0 {
			sum += o.OWD - minOWD
			n++
		}
	}
	m.minOWD = minOWD
	m.owdMax = 0
	if n > 0 {
		m.owdMax = sum / time.Duration(n)
	}
	m.threshold = time.Duration((1 - cfg.Alpha) * float64(m.owdMax))
}

// Congested reports the §6.1 mark of obs[i] against the references of
// the whole set passed to Reset.
func (m *Marker) Congested(i int) bool {
	o := m.obs[i]
	if o.Lost() {
		return true
	}
	if m.owdMax == 0 || o.OWD == 0 || o.OWD-m.minOWD < m.threshold {
		return false
	}
	return m.nearLoss(o.T)
}

// nearLoss reports whether a loss was observed within Tau of t.
func (m *Marker) nearLoss(t time.Duration) bool {
	ls := m.losses
	k := sort.Search(len(ls), func(k int) bool { return m.obs[ls[k]].T >= t })
	if k < len(ls) && m.obs[ls[k]].T-t <= m.cfg.Tau {
		return true
	}
	return k > 0 && t-m.obs[ls[k-1]].T <= m.cfg.Tau
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
