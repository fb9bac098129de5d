package simnet

import (
	"fmt"
	"time"
)

// Rate is a link bandwidth in bits per second.
type Rate int64

// Common link rates from the paper's testbed.
const (
	OC3  Rate = 155_520_000 // bottleneck link in the testbed
	OC12 Rate = 622_080_000
	GigE Rate = 1_000_000_000
)

// TxTime returns how long size bytes take to serialize at rate r.
func (r Rate) TxTime(size int) time.Duration {
	return time.Duration(int64(size) * 8 * int64(time.Second) / int64(r))
}

// Bytes returns how many bytes r carries in d.
func (r Rate) Bytes(d time.Duration) int {
	return int(int64(r) * int64(d) / (8 * int64(time.Second)))
}

// Link models a store-and-forward output link: a drop-tail FIFO of QueueCap
// bytes feeding a transmitter of the given Rate, followed by a fixed
// propagation Delay. This is the paper's Figure 1 system: loss episodes are
// created exclusively by this queue overflowing.
//
// Occupancy accounting includes the packet currently being transmitted,
// matching how router buffer occupancy is reported.
type Link struct {
	sim      *Sim
	rate     Rate
	delay    time.Duration
	queueCap int // bytes
	dst      Receiver

	busy   bool
	qbytes int // queued bytes, including packet in service
	q      ring[*Packet]
	cur    *Packet // packet in service while busy

	// The propagation delay line: departed packets in flight, in
	// departure order. Only its head has a heap entry (lineID).
	line   ring[inflight]
	lineID int32

	taps []Tap
	aqm  AQM

	// Counters.
	arrived   uint64
	dropped   uint64
	delivered uint64
}

// NewLink creates a link feeding dst. queueCap is the buffer size in bytes;
// the paper's bottleneck held approximately 100 ms of packets, i.e.
// queueCap = rate.Bytes(100*time.Millisecond).
func NewLink(sim *Sim, rate Rate, delay time.Duration, queueCap int, dst Receiver) *Link {
	if rate <= 0 {
		panic(fmt.Sprintf("simnet: invalid rate %d", rate))
	}
	if queueCap <= 0 {
		panic(fmt.Sprintf("simnet: invalid queue capacity %d", queueCap))
	}
	return &Link{sim: sim, rate: rate, delay: delay, queueCap: queueCap, dst: dst, lineID: -1}
}

// AddTap registers t to observe this link's packet events.
func (l *Link) AddTap(t Tap) { l.taps = append(l.taps, t) }

// Rate returns the link bandwidth.
func (l *Link) Rate() Rate { return l.rate }

// Delay returns the propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// QueueCap returns the buffer capacity in bytes.
func (l *Link) QueueCap() int { return l.queueCap }

// QueueBytes returns the current buffer occupancy in bytes, including the
// packet in service.
func (l *Link) QueueBytes() int { return l.qbytes }

// QueueDelay returns the current buffer occupancy expressed as time to
// drain at the link rate — the quantity plotted on the y axis of the
// paper's queue-length figures.
func (l *Link) QueueDelay() time.Duration { return l.rate.TxTime(l.qbytes) }

// Stats returns cumulative arrival, drop and delivery counts.
func (l *Link) Stats() (arrived, dropped, delivered uint64) {
	return l.arrived, l.dropped, l.delivered
}

// Send places p on the link. If the buffer cannot hold it, p is dropped.
func (l *Link) Send(p *Packet) {
	now := l.sim.Now()
	l.arrived++
	for _, t := range l.taps {
		t.Arrive(now, p, l.qbytes)
	}
	if (l.busy && l.qbytes+p.Size > l.queueCap) || !l.redAdmit(p) {
		l.dropped++
		for _, t := range l.taps {
			t.Dropped(now, p, DropQueueFull)
		}
		return
	}
	l.qbytes += p.Size
	if !l.busy {
		l.busy = true
		l.transmit(p)
		return
	}
	l.q.push(p)
}

// SendAt calls Send(p) at virtual time at, which must not be in the
// past. The pending send is a typed event, not a closure: it allocates
// nothing in steady state.
func (l *Link) SendAt(at time.Duration, p *Packet) {
	s := l.sim
	s.checkAt(at)
	id := s.enqueue(at, evSend)
	s.recs[id].l, s.recs[id].pkt = l, p
}

// transmit starts serializing p; the transmitter's single event fires
// when the last bit is out.
func (l *Link) transmit(p *Packet) {
	l.cur = p
	l.sim.recs[l.sim.enqueue(l.sim.now+l.rate.TxTime(p.Size), evTx)].l = l
}

// txDone completes the packet in service: it leaves the queue, enters the
// delay line, and the next queued packet starts transmitting.
func (l *Link) txDone() {
	p := l.cur
	l.cur = nil
	l.qbytes -= p.Size
	l.delivered++
	s := l.sim
	now := s.now
	for _, t := range l.taps {
		t.Depart(now, p, l.qbytes)
	}
	// Departures are serial and the delay is fixed, so the line stays
	// sorted by key; its sequence number is taken here, as a delivery
	// callback scheduled now would take it.
	s.seq++
	s.pending++
	e := inflight{at: now + l.delay, seq: s.seq, p: p}
	if l.line.len() == 0 {
		l.lineID = s.alloc(evDeliver)
		s.recs[l.lineID].l = l
		s.push(entry{at: e.at, seq: e.seq, id: l.lineID})
	}
	l.line.push(e)
	if l.q.len() > 0 {
		l.transmit(l.q.pop())
	} else {
		l.busy = false
	}
}

// deliverHead hands the delay line's head to the receiver. Its heap entry
// (record id, at the top of the heap) moves on to the next packet in
// flight, or is retired when the line empties.
func (l *Link) deliverHead(id int32) {
	p := l.line.pop().p
	s := l.sim
	if l.line.len() > 0 {
		next := l.line.front()
		s.rekeyTop(next.at, next.seq)
	} else {
		s.popTop(id)
		l.lineID = -1
	}
	l.dst.Deliver(p)
}

// inflight is one packet on a link's delay line with its delivery key.
type inflight struct {
	at  time.Duration
	seq uint64
	p   *Packet
}

// ring is a growable FIFO ring buffer; steady-state push and pop
// allocate nothing.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) front() T { return r.buf[r.head] }

func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
