package probe

import (
	"time"

	"badabing/internal/badabing"
	"badabing/internal/simnet"
)

// BadabingConfig shapes the probes of a simulated BADABING run. It
// carries no schedule, marker or estimator settings: the prober is only
// the substrate, and its observations are marked and estimated by the
// shared pipeline (session.MarkSlots, then estimate.Batch or the
// session engine).
type BadabingConfig struct {
	// Slot is the discretization width. Default badabing.DefaultSlot.
	Slot time.Duration
	// PacketsPerProbe: default 3 (§6.2).
	PacketsPerProbe int
	// PacketSize: default 600 bytes (§6.1).
	PacketSize int
	// PktGap spaces packets within a probe. Default 30 µs.
	PktGap time.Duration
}

func (c *BadabingConfig) applyDefaults() {
	if c.Slot == 0 {
		c.Slot = badabing.DefaultSlot
	}
	if c.PacketsPerProbe == 0 {
		c.PacketsPerProbe = 3
	}
	if c.PacketSize == 0 {
		c.PacketSize = 600
	}
	if c.PktGap == 0 {
		c.PktGap = 30 * time.Microsecond
	}
}

// Badabing drives the slot-based probe process on a simulated path.
type Badabing struct {
	prober *Prober
	slots  []int64             // deduplicated probe slots, in order
	obs    []badabing.ProbeObs // Observations' buffer, one entry per slot
}

// StartBadabing schedules one probe per slot of a flattened schedule
// (ascending, deduplicated — see badabing.ProbeSlots): overlapping
// experiments share probes, so each slot is probed at most once and its
// observation feeds every experiment covering it. Probes enter the path
// at entry and are collected from demux (a dumbbell's Bottleneck and
// FwdDemux, or a multi-hop chain's Entry and FwdDemux).
func StartBadabing(sim *simnet.Sim, entry *simnet.Link, demux *simnet.Demux, flow uint64, cfg BadabingConfig, slots []int64) *Badabing {
	cfg.applyDefaults()
	b := &Badabing{
		prober: NewProber(sim, entry, flow, cfg.PacketSize, cfg.PktGap),
		slots:  slots,
		obs:    make([]badabing.ProbeObs, 0, len(slots)),
	}
	b.prober.probes = make([]record, 0, len(slots))
	demux.Register(flow, b.prober.Receiver())
	// One pre-keyed stream: every probe takes its place in the event
	// order now, ahead of any cross traffic scheduled later for the same
	// instant, without a heap entry per probe.
	sim.ScheduleEach(len(slots), func(i int) time.Duration {
		return time.Duration(slots[i]) * cfg.Slot
	}, func(i int) {
		b.prober.SendProbe(slots[i], cfg.PacketsPerProbe)
	})
	return b
}

// ProbeCount returns the number of probes scheduled.
func (b *Badabing) ProbeCount() int { return len(b.slots) }

// PacketCounts returns total probe packets sent and lost so far.
func (b *Badabing) PacketCounts() (sent, lost int) { return b.prober.PacketCounts() }

// Observations converts raw probe results to marker inputs, for every
// probe sent so far, in send order. Call after the simulation has
// drained for a complete run. The result is the prober's own buffer: the
// next call refills it.
func (b *Badabing) Observations() []badabing.ProbeObs {
	b.obs = b.obs[:0]
	for _, r := range b.prober.probes {
		b.obs = append(b.obs, badabing.ProbeObs{
			Slot:        r.key,
			T:           r.at,
			SentPackets: r.sent,
			LostPackets: r.sent - r.got,
			OWD:         r.maxOWD,
		})
	}
	badabing.InheritOWD(b.obs)
	return b.obs
}
