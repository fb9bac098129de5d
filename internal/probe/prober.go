// Package probe implements the probe-traffic side of the evaluation over
// simnet: the BADABING slot prober (multi-packet probes driven by a
// badabing.Schedule), a ZING-style Poisson-modulated prober, and a
// fixed-interval prober used for the probe-sensitivity experiments
// (Figures 7 and 8).
package probe

import (
	"time"

	"badabing/internal/simnet"
)

// arrival accumulates receiver-side state for one probe.
type arrival struct {
	count  int
	maxOWD time.Duration
}

// Prober sends multi-packet probes into a link and collects arrivals.
// Packets of one probe share a key; packet Seq encodes key and index.
// The Prober must be registered (via Receiver) on the demux that
// terminates the forward path.
type Prober struct {
	sim    *simnet.Sim
	link   *simnet.Link
	flow   uint64
	size   int
	pktGap time.Duration

	sent    map[int64]int
	sentAt  map[int64]time.Duration
	arrived map[int64]*arrival
	order   []int64
}

const pktsPerKey = 64

// NewProber creates a prober sending size-byte probe packets into link
// under the given flow id, spacing packets within a probe by pktGap
// (the paper's hosts managed ≈30 µs back-to-back).
func NewProber(sim *simnet.Sim, link *simnet.Link, flow uint64, size int, pktGap time.Duration) *Prober {
	return &Prober{
		sim:     sim,
		link:    link,
		flow:    flow,
		size:    size,
		pktGap:  pktGap,
		sent:    make(map[int64]int),
		sentAt:  make(map[int64]time.Duration),
		arrived: make(map[int64]*arrival),
	}
}

// Receiver returns the receiver to register for the probe flow.
func (p *Prober) Receiver() simnet.Receiver {
	return simnet.ReceiverFunc(p.deliver)
}

func (p *Prober) deliver(pkt *simnet.Packet) {
	key := pkt.Seq / pktsPerKey
	a := p.arrived[key]
	if a == nil {
		a = &arrival{}
		p.arrived[key] = a
	}
	a.count++
	if owd := p.sim.Now() - pkt.Sent; owd > a.maxOWD {
		a.maxOWD = owd
	}
}

// SendProbe emits a probe of n packets starting at the current virtual
// time. Each key must be used at most once.
func (p *Prober) SendProbe(key int64, n int) {
	if _, dup := p.sent[key]; dup {
		panic("probe: duplicate probe key")
	}
	p.sent[key] = n
	p.sentAt[key] = p.sim.Now()
	p.order = append(p.order, key)
	start := p.sim.Now()
	p.sim.ScheduleEach(n, func(i int) time.Duration {
		return start + time.Duration(i)*p.pktGap
	}, func(i int) {
		p.link.Send(&simnet.Packet{
			ID:   p.sim.NextPacketID(),
			Flow: p.flow,
			Kind: simnet.Probe,
			Size: p.size,
			Seq:  key*pktsPerKey + int64(i),
			Sent: p.sim.Now(),
		})
	})
}

// Obs is the outcome of one probe after the simulation has drained.
type Obs struct {
	Key  int64
	T    time.Duration // send time of the probe's first packet
	Sent int
	Lost int
	OWD  time.Duration // max one-way delay among received packets
}

// Results returns per-probe outcomes in send order. Call only after the
// simulation has run long enough for all probe packets to be delivered or
// dropped.
func (p *Prober) Results() []Obs {
	out := make([]Obs, 0, len(p.order))
	for _, key := range p.order {
		o := Obs{Key: key, T: p.sentAt[key], Sent: p.sent[key]}
		if a := p.arrived[key]; a != nil {
			o.Lost = o.Sent - a.count
			o.OWD = a.maxOWD
		} else {
			o.Lost = o.Sent
		}
		out = append(out, o)
	}
	return out
}

// PacketCounts returns total probe packets sent and lost.
func (p *Prober) PacketCounts() (sent, lost int) {
	for _, o := range p.Results() {
		sent += o.Sent
		lost += o.Lost
	}
	return sent, lost
}
