package simnet

import "time"

// Chain is a multi-hop path: several store-and-forward links in series,
// each with its own finite queue that can congest independently. The
// paper's evaluation is single-bottleneck; §6.2 flags "more complex
// multi-hop scenarios" as future work, and this topology is what the
// multi-hop experiments in internal/lab run on.
//
// End-to-end traffic enters at Hops[0] and is delivered from FwdDemux
// after the last hop. Cross traffic local to hop k is sent into Hops[k]
// with a flow id registered on HopDemux[k], where it exits the path; all
// unregistered flows fall through to the next hop.
type Chain struct {
	Sim      *Sim
	Hops     []*Link
	HopDemux []*Demux // demux after each hop; last one is FwdDemux
	FwdDemux *Demux
	Reverse  *Link
	RevDemux *Demux
}

// ChainConfig parameterizes NewChain. Zero values inherit the dumbbell
// defaults. The testbed's one-way delay is split evenly across the hops,
// and the reverse path is the dumbbell's.
type ChainConfig struct {
	Hops        int           // number of forward links; default 2
	RatePerHop  Rate          // default OC3
	QueuePerHop time.Duration // buffer per hop as drain time; default 100 ms
}

func (c *ChainConfig) applyDefaults() {
	if c.Hops == 0 {
		c.Hops = 2
	}
	if c.RatePerHop == 0 {
		c.RatePerHop = OC3
	}
	if c.QueuePerHop == 0 {
		c.QueuePerHop = 100 * time.Millisecond
	}
}

// NewChain builds the multi-hop path.
func NewChain(sim *Sim, cfg ChainConfig) *Chain {
	cfg.applyDefaults()
	ch := &Chain{Sim: sim}
	perHopDelay := oneWayDelay / time.Duration(cfg.Hops)
	qcap := cfg.RatePerHop.Bytes(cfg.QueuePerHop)

	// Build back to front so each hop's demux can fall through to the
	// next link.
	demuxes := make([]*Demux, cfg.Hops)
	links := make([]*Link, cfg.Hops)
	for i := cfg.Hops - 1; i >= 0; i-- {
		demuxes[i] = NewDemux()
		links[i] = NewLink(sim, cfg.RatePerHop, perHopDelay, qcap, demuxes[i])
		if i < cfg.Hops-1 {
			next := links[i+1]
			demuxes[i].SetFallback(ReceiverFunc(func(p Packet) { next.Send(p) }))
		}
	}
	ch.Hops = links
	ch.HopDemux = demuxes
	ch.FwdDemux = demuxes[cfg.Hops-1]
	ch.RevDemux = NewDemux()
	ch.Reverse = newReverse(sim, oneWayDelay, ch.RevDemux)
	return ch
}

// Entry returns the first forward link.
func (c *Chain) Entry() *Link { return c.Hops[0] }
