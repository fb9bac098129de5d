package simnet

import "time"

// Kind classifies a packet's role in the simulation.
type Kind uint8

// Packet kinds.
const (
	Data  Kind = iota // bulk cross-traffic payload
	Ack               // transport acknowledgment
	Probe             // measurement probe
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Probe:
		return "probe"
	default:
		return "unknown"
	}
}

// Packet is a simulated packet. Size is the on-the-wire size in bytes and
// is what the link scheduler and queue account for. A Packet has no
// pointers and travels by value, so carrying one allocates nothing.
type Packet struct {
	ID   uint64
	Flow uint64
	Kind Kind
	Size int
	Seq  int64
	Sent time.Duration // time the packet entered the network
}

// Receiver consumes delivered packets. A packet travels by value: the
// receiver gets its own copy and may keep it or send it on.
type Receiver interface {
	Deliver(p Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(p Packet)

// Deliver implements Receiver.
func (f ReceiverFunc) Deliver(p Packet) { f(p) }

// Drop is the reason a packet was discarded.
type Drop uint8

// Drop reasons.
const (
	DropQueueFull Drop = iota
)

// Tap observes packet events at a link. All callbacks run synchronously
// inside the simulation event loop, at the virtual time reported by
// Sim.Now. p points at storage the link owns and reuses for the next
// packet: it is valid only during the callback, so an implementation that
// keeps the packet copies *p, and none may send on the link it observes
// from inside a callback.
type Tap interface {
	// Arrive is called when a packet arrives at the link, before the
	// enqueue-or-drop decision.
	Arrive(now time.Duration, p *Packet, queuedBytes int)
	// Dropped is called when the link discards a packet.
	Dropped(now time.Duration, p *Packet, reason Drop)
	// Depart is called when a packet finishes transmission and leaves
	// the queue (it will be delivered after the propagation delay).
	Depart(now time.Duration, p *Packet, queuedBytes int)
}
