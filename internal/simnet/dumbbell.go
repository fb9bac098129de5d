package simnet

import "time"

// DumbbellConfig parameterizes the paper's testbed topology (Figure 3): N
// sources feeding a single bottleneck link toward receiving hosts, with an
// uncongested reverse path for acknowledgments. The defaults reproduce the
// testbed: an OC3 bottleneck, 50 ms of propagation delay in each direction,
// and roughly 100 ms of buffering at the bottleneck.
type DumbbellConfig struct {
	BottleneckRate Rate          // default OC3 (155.52 Mb/s)
	OneWayDelay    time.Duration // default 50 ms each direction
	QueueDuration  time.Duration // buffer capacity as drain time; default 100 ms
}

// oneWayDelay is the testbed's propagation delay in each direction.
const oneWayDelay = 50 * time.Millisecond

// The reverse path of both topologies carries the acknowledgments and is
// never congested in practice: an OC12 link with a second of buffering.
const (
	reverseRate   = OC12
	reverseBuffer = time.Second
)

// newReverse builds a topology's reverse path with the given propagation
// delay, delivering to demux.
func newReverse(sim *Sim, delay time.Duration, demux *Demux) *Link {
	return NewLink(sim, reverseRate, delay, reverseRate.Bytes(reverseBuffer), demux)
}

func (c *DumbbellConfig) applyDefaults() {
	if c.BottleneckRate == 0 {
		c.BottleneckRate = OC3
	}
	if c.OneWayDelay == 0 {
		c.OneWayDelay = oneWayDelay
	}
	if c.QueueDuration == 0 {
		c.QueueDuration = 100 * time.Millisecond
	}
}

// Dumbbell is the instantiated topology. Forward traffic is sent into
// Bottleneck and demultiplexed by flow at FwdDemux; reverse traffic
// (acknowledgments) is sent into Reverse and demultiplexed at RevDemux.
type Dumbbell struct {
	Sim        *Sim
	Bottleneck *Link
	Reverse    *Link
	FwdDemux   *Demux
	RevDemux   *Demux
}

// NewDumbbell builds the topology on sim. A zero config yields the paper's
// testbed parameters.
func NewDumbbell(sim *Sim, cfg DumbbellConfig) *Dumbbell {
	cfg.applyDefaults()
	d := &Dumbbell{
		Sim:      sim,
		FwdDemux: NewDemux(),
		RevDemux: NewDemux(),
	}
	qcap := cfg.BottleneckRate.Bytes(cfg.QueueDuration)
	d.Bottleneck = NewLink(sim, cfg.BottleneckRate, cfg.OneWayDelay, qcap, d.FwdDemux)
	d.Reverse = newReverse(sim, cfg.OneWayDelay, d.RevDemux)
	return d
}
