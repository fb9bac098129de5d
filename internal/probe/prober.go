// Package probe implements the probe-traffic side of the evaluation over
// simnet: the BADABING slot prober (multi-packet probes driven by a
// badabing.Schedule), a ZING-style Poisson-modulated prober, and a
// fixed-interval prober used for the probe-sensitivity experiments
// (Figures 7 and 8).
package probe

import (
	"sort"
	"time"

	"badabing/internal/simnet"
)

// record is one probe's send and receive state.
type record struct {
	key    int64
	at     time.Duration // send time of the probe's first packet
	sent   int
	got    int
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

	// probes holds one record per probe in send order. Keys are
	// strictly ascending, so an arrival finds its record by binary
	// search.
	probes []record
}

const pktsPerKey = 64

// NewProber creates a prober sending size-byte probe packets into link
// under the given flow id, spacing packets within a probe by pktGap
// (the paper's hosts managed ≈30 µs back-to-back).
func NewProber(sim *simnet.Sim, link *simnet.Link, flow uint64, size int, pktGap time.Duration) *Prober {
	return &Prober{
		sim:    sim,
		link:   link,
		flow:   flow,
		size:   size,
		pktGap: pktGap,
	}
}

// Receiver returns the receiver to register for the probe flow.
func (p *Prober) Receiver() simnet.Receiver {
	return simnet.ReceiverFunc(p.deliver)
}

func (p *Prober) deliver(pkt *simnet.Packet) {
	key := pkt.Seq / pktsPerKey
	i := sort.Search(len(p.probes), func(i int) bool { return p.probes[i].key >= key })
	if i == len(p.probes) || p.probes[i].key != key {
		return
	}
	r := &p.probes[i]
	r.got++
	if owd := p.sim.Now() - pkt.Sent; owd > r.maxOWD {
		r.maxOWD = owd
	}
}

// SendProbe emits a probe of n packets starting at the current virtual
// time. Keys must be strictly ascending from one probe to the next.
func (p *Prober) SendProbe(key int64, n int) {
	if k := len(p.probes); k > 0 && key <= p.probes[k-1].key {
		panic("probe: probe key not above the previous one")
	}
	start := p.sim.Now()
	p.probes = append(p.probes, record{key: key, at: start, sent: n})
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
	out := make([]Obs, len(p.probes))
	for i, r := range p.probes {
		out[i] = Obs{Key: r.key, T: r.at, Sent: r.sent, Lost: r.sent - r.got, OWD: r.maxOWD}
	}
	return out
}

// PacketCounts returns total probe packets sent and lost.
func (p *Prober) PacketCounts() (sent, lost int) {
	for _, r := range p.probes {
		sent += r.sent
		lost += r.sent - r.got
	}
	return sent, lost
}
