package probe

import (
	"time"

	"badabing/internal/badabing"
	"badabing/internal/session"
	"badabing/internal/simnet"
)

// BadabingConfig parameterizes a simulated BADABING run.
type BadabingConfig struct {
	// Plans is the experiment schedule (from badabing.Schedule).
	Plans []badabing.Plan
	// Slot is the discretization width. Default badabing.DefaultSlot.
	Slot time.Duration
	// PacketsPerProbe: default 3 (§6.2).
	PacketsPerProbe int
	// PacketSize: default 600 bytes (§6.1).
	PacketSize int
	// PktGap spaces packets within a probe. Default 30 µs.
	PktGap time.Duration
	// Marker holds the α/τ congestion-marking parameters.
	Marker badabing.MarkerConfig
	// ExtendedPairs enables the §5.5 modification in the estimator:
	// extended experiments' overlapping slot pairs also feed R/S.
	ExtendedPairs bool
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
	cfg    BadabingConfig
	prober *Prober
	slots  []int64 // deduplicated probe slots, in order
}

// StartBadabing schedules all probes of cfg.Plans on the dumbbell.
// Overlapping experiments share probes: each slot is probed at most once
// and its observation feeds every experiment covering it.
func StartBadabing(sim *simnet.Sim, d *simnet.Dumbbell, flow uint64, cfg BadabingConfig) *Badabing {
	return StartBadabingAt(sim, d.Bottleneck, d.FwdDemux, flow, cfg)
}

// StartBadabingAt is the topology-agnostic form: probes enter at entry
// and are collected from demux (e.g. a multi-hop simnet.Chain's Entry and
// FwdDemux).
func StartBadabingAt(sim *simnet.Sim, entry *simnet.Link, demux *simnet.Demux, flow uint64, cfg BadabingConfig) *Badabing {
	return StartBadabingSlots(sim, entry, demux, flow, cfg, badabing.ProbeSlots(cfg.Plans))
}

// StartBadabingSlots schedules one probe per slot of an already-flattened
// schedule (ascending, deduplicated — see badabing.ProbeSlots). It is the
// session engine's entry point, which derives the slot list itself;
// cfg.Plans is then only needed for the batch Report/Counts accessors.
func StartBadabingSlots(sim *simnet.Sim, entry *simnet.Link, demux *simnet.Demux, flow uint64, cfg BadabingConfig, slots []int64) *Badabing {
	cfg.applyDefaults()
	b := &Badabing{
		cfg:    cfg,
		prober: NewProber(sim, entry, flow, cfg.PacketSize, cfg.PktGap),
		slots:  slots,
	}
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

// Observations converts raw probe results to marker inputs. Call after
// the simulation has drained.
func (b *Badabing) Observations() []badabing.ProbeObs {
	raw := b.prober.Results()
	obs := make([]badabing.ProbeObs, len(raw))
	for i, r := range raw {
		obs[i] = badabing.ProbeObs{
			Slot:        r.Key,
			T:           r.T,
			SentPackets: r.Sent,
			LostPackets: r.Lost,
			OWD:         r.OWD,
		}
	}
	badabing.InheritOWD(obs)
	return obs
}

// Report marks the observations, assembles experiment outcomes and
// returns the estimates. Call after the simulation has drained.
func (b *Badabing) Report() badabing.Report {
	return b.accumulate().MakeReport()
}

// Counts returns the assembled outcome tallies, for merging across rounds
// (e.g. by the adaptive controller). Experiments whose probes have not
// been sent yet are skipped, so mid-run snapshots are safe.
func (b *Badabing) Counts() badabing.Counts {
	return b.accumulate().Counts()
}

func (b *Badabing) accumulate() *badabing.Accumulator {
	acc := &badabing.Accumulator{Slot: b.cfg.Slot, ExtendedPairs: b.cfg.ExtendedPairs}
	bySlot := session.MarkSlots(b.Observations(), nil, b.cfg.Marker)
	badabing.Assemble(acc, b.cfg.Plans, bySlot)
	return acc
}
