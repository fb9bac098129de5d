package simnet

// Demux routes delivered packets to per-flow receivers. Packets for flows
// with no registered receiver are counted and discarded, which models
// traffic sinking at a host with no listener.
type Demux struct {
	byFlow   map[uint64]Receiver
	fallback Receiver
	orphans  uint64
}

// NewDemux returns an empty demultiplexer.
func NewDemux() *Demux {
	return &Demux{byFlow: make(map[uint64]Receiver)}
}

// Register routes packets whose Flow equals flow to r, replacing any
// previous registration.
func (d *Demux) Register(flow uint64, r Receiver) {
	d.byFlow[flow] = r
}

// Unregister removes the receiver for flow, if any.
func (d *Demux) Unregister(flow uint64) {
	delete(d.byFlow, flow)
}

// SetFallback routes packets for unregistered flows to r instead of
// discarding them.
func (d *Demux) SetFallback(r Receiver) { d.fallback = r }

// Orphans returns how many packets arrived for unregistered flows.
func (d *Demux) Orphans() uint64 { return d.orphans }

// Deliver implements Receiver.
func (d *Demux) Deliver(p Packet) {
	if r, ok := d.byFlow[p.Flow]; ok {
		r.Deliver(p)
		return
	}
	if d.fallback != nil {
		d.fallback.Deliver(p)
		return
	}
	d.orphans++
}
