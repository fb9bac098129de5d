package simnet

import "math/rand"

// AQM is a queue admission policy. The zero behavior of a Link is
// drop-tail (admit anything that fits); SetAQM installs an active queue
// management policy consulted before the capacity check.
//
// The paper's testbed ran drop-tail FIFOs, where loss comes in crisp
// full-buffer episodes. Under RED, drops are probabilistic and spread
// thin across time, which erodes the very notion of a loss *episode* —
// making AQM paths a stress test for the estimators and the §5.4
// validation (see lab.RED).
type AQM interface {
	// Admit decides whether to accept a packet given the current
	// occupancy in bytes (before the packet is added). p points at the
	// link's copy of the packet, as a Tap's does.
	Admit(p *Packet, queuedBytes int) bool
}

// SetAQM installs an admission policy on the link. Packets rejected by
// the policy count as drops with the same tap callbacks as queue
// overflow.
func (l *Link) SetAQM(a AQM) { l.aqm = a }

// REDConfig parameterizes Random Early Detection (Floyd & Jacobson 1993),
// in bytes.
type REDConfig struct {
	// MinTh: below this average occupancy nothing is dropped.
	MinTh int
	// MaxTh: above this average occupancy everything is dropped.
	MaxTh int
	// MaxP is the drop probability as the average reaches MaxTh.
	// Default 0.1.
	MaxP float64
	// Wq is the EWMA weight for the average queue size. Default 0.002.
	Wq float64
	// Seed for the drop lottery.
	Seed int64
}

func (c *REDConfig) applyDefaults() {
	if c.MaxP == 0 {
		c.MaxP = 0.1
	}
	if c.Wq == 0 {
		c.Wq = 0.002
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RED implements the classic random-early-detection gateway: an EWMA of
// the queue size drives a drop probability that rises linearly from 0 at
// MinTh to MaxP at MaxTh, with the count-based spacing correction from
// the original paper.
type RED struct {
	cfg   REDConfig
	rng   *rand.Rand
	avg   float64
	count int // packets since the last drop
}

// NewRED returns a RED policy. MinTh and MaxTh must be sensible
// (0 < MinTh < MaxTh).
func NewRED(cfg REDConfig) *RED {
	cfg.applyDefaults()
	if cfg.MinTh <= 0 || cfg.MaxTh <= cfg.MinTh {
		panic("simnet: RED thresholds must satisfy 0 < MinTh < MaxTh")
	}
	return &RED{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), count: -1}
}

// Admit implements AQM.
func (r *RED) Admit(_ *Packet, queuedBytes int) bool {
	r.avg = (1-r.cfg.Wq)*r.avg + r.cfg.Wq*float64(queuedBytes)
	switch {
	case r.avg < float64(r.cfg.MinTh):
		r.count = -1
		return true
	case r.avg >= float64(r.cfg.MaxTh):
		r.count = 0
		return false
	}
	r.count++
	pb := r.cfg.MaxP * (r.avg - float64(r.cfg.MinTh)) / float64(r.cfg.MaxTh-r.cfg.MinTh)
	// Spacing correction: makes inter-drop gaps uniform rather than
	// geometric.
	pa := pb / (1 - float64(r.count)*pb)
	if pa < 0 || pa > 1 {
		pa = 1
	}
	if r.rng.Float64() < pa {
		r.count = 0
		return false
	}
	return true
}

// REDForLink builds thresholds from a link's buffer: MinTh at lowFrac and
// MaxTh at highFrac of capacity (the common 1/4 and 3/4 rule when called
// with 0.25, 0.75).
func REDForLink(l *Link, lowFrac, highFrac, maxP float64, seed int64) *RED {
	return NewRED(REDConfig{
		MinTh: int(lowFrac * float64(l.QueueCap())),
		MaxTh: int(highFrac * float64(l.QueueCap())),
		MaxP:  maxP,
		Seed:  seed,
	})
}
