package simnet

// Demux routes delivered packets to per-flow receivers. Packets for flows
// with no registered receiver are counted and discarded, which models
// traffic sinking at a host with no listener.
//
// The routes live in an open-addressed table: a multiplicative hash of
// the flow id picks a slot, collisions probe linearly, and Unregister
// shifts the rest of a probe run back rather than leaving a tombstone.
// The table doubles before it is more than half full and never shrinks,
// so its size follows the most flows registered at once — a web
// workload's live flows — not the highest flow id ever seen.
type Demux struct {
	slots    []route // len is zero or a power of two
	shift    uint    // 64 - log2(len(slots))
	live     int
	fallback Receiver
	orphans  uint64
}

// route is one table slot; r == nil marks it empty.
type route struct {
	flow uint64
	r    Receiver
}

// minDemuxSlots is the smallest table a Demux allocates.
const minDemuxSlots = 8

// NewDemux returns an empty demultiplexer.
func NewDemux() *Demux {
	return &Demux{}
}

// home is flow's preferred slot (Fibonacci hashing: the top bits of the
// product spread consecutive ids across the table).
func (d *Demux) home(flow uint64) int {
	return int((flow * 0x9E3779B97F4A7C15) >> d.shift)
}

// find returns the slot holding flow, or the empty slot that ends its
// probe run. The table must not be empty.
func (d *Demux) find(flow uint64) int {
	mask := len(d.slots) - 1
	i := d.home(flow)
	for d.slots[i].r != nil && d.slots[i].flow != flow {
		i = (i + 1) & mask
	}
	return i
}

// Register routes packets whose Flow equals flow to r, replacing any
// previous registration. r must not be nil.
func (d *Demux) Register(flow uint64, r Receiver) {
	if r == nil {
		panic("simnet: Demux.Register with a nil receiver")
	}
	if 2*(d.live+1) > len(d.slots) {
		d.grow(max(minDemuxSlots, 2*len(d.slots)))
	}
	i := d.find(flow)
	if d.slots[i].r == nil {
		d.live++
	}
	d.slots[i] = route{flow: flow, r: r}
}

// Unregister removes the receiver for flow, if any.
func (d *Demux) Unregister(flow uint64) {
	if d.live == 0 {
		return
	}
	i := d.find(flow)
	if d.slots[i].r == nil {
		return
	}
	// Backward-shift deletion: walk the probe run after the hole and
	// move back each entry whose home does not lie cyclically in
	// (hole, j], so that every lookup still reaches its slot before an
	// empty one.
	mask := len(d.slots) - 1
	for j := (i + 1) & mask; d.slots[j].r != nil; j = (j + 1) & mask {
		if h := d.home(d.slots[j].flow); (j-h)&mask >= (j-i)&mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = route{}
	d.live--
}

// grow rehashes the live routes into a table of n slots.
func (d *Demux) grow(n int) {
	old := d.slots
	d.slots = make([]route, n)
	d.shift = 64
	for ; n > 1; n >>= 1 {
		d.shift--
	}
	for _, rt := range old {
		if rt.r != nil {
			d.slots[d.find(rt.flow)] = rt
		}
	}
}

// SetFallback routes packets for unregistered flows to r instead of
// discarding them.
func (d *Demux) SetFallback(r Receiver) { d.fallback = r }

// Orphans returns how many packets arrived for unregistered flows.
func (d *Demux) Orphans() uint64 { return d.orphans }

// Deliver implements Receiver.
func (d *Demux) Deliver(p Packet) {
	if d.live > 0 {
		if rt := d.slots[d.find(p.Flow)]; rt.r != nil {
			rt.r.Deliver(p)
			return
		}
	}
	if d.fallback != nil {
		d.fallback.Deliver(p)
		return
	}
	d.orphans++
}
