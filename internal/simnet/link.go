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
	h        int32 // handle: index in sim.links
	rate     Rate
	delay    time.Duration
	queueCap int // bytes
	dst      Receiver

	busy   bool
	qbytes int // queued bytes, including packet in service
	q      ring[Packet]
	cur    Packet // packet in service while busy
	in     Packet // the arriving packet, for taps and the AQM

	// The propagation delay line: departed packets in flight, in
	// departure order. Only its head has a heap entry.
	line ring[inflight]

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
	l := &Link{sim: sim, h: int32(len(sim.links)), rate: rate, delay: delay, queueCap: queueCap, dst: dst}
	sim.links = append(sim.links, l)
	return l
}

// AddTap registers t to observe this link's packet events.
func (l *Link) AddTap(t Tap) { l.taps = append(l.taps, t) }

// Rate returns the link bandwidth.
func (l *Link) Rate() Rate { return l.rate }

// QueueCap returns the buffer capacity in bytes.
func (l *Link) QueueCap() int { return l.queueCap }

// QueueDelay returns the current buffer occupancy expressed as time to
// drain at the link rate — the quantity plotted on the y axis of the
// paper's queue-length figures.
func (l *Link) QueueDelay() time.Duration { return l.rate.TxTime(l.qbytes) }

// Stats returns cumulative arrival, drop and delivery counts.
func (l *Link) Stats() (arrived, dropped, delivered uint64) {
	return l.arrived, l.dropped, l.delivered
}

// Send places p on the link. If the buffer cannot hold it, p is dropped.
func (l *Link) Send(p Packet) {
	now := l.sim.Now()
	l.arrived++
	// Taps and the AQM see the link's copy: &p would escape to the heap.
	l.in = p
	for _, t := range l.taps {
		t.Arrive(now, &l.in, l.qbytes)
	}
	if (l.busy && l.qbytes+p.Size > l.queueCap) || (l.aqm != nil && !l.aqm.Admit(&l.in, l.qbytes)) {
		l.dropped++
		for _, t := range l.taps {
			t.Dropped(now, &l.in, DropQueueFull)
		}
		return
	}
	l.qbytes += p.Size
	if !l.busy {
		l.busy = true
		l.cur = p
		s := l.sim
		s.recs[s.enqueue(s.now+l.rate.TxTime(p.Size), evTx)].ref = l.h
		return
	}
	l.q.push(p)
}

// SendAt calls Send(p) at virtual time at, which must not be in the
// past. The pending send is a typed event, not a closure, and p waits in
// Sim.sends: it allocates nothing in steady state.
func (l *Link) SendAt(at time.Duration, p Packet) {
	s := l.sim
	s.checkAt(at)
	id := s.enqueue(at, evSend)
	s.recs[id].ref = l.h
	s.sends = grow(s.sends, id)
	s.sends[id] = p
}

// train is a pending Link.SendTrain: packet i of n is p with Seq p.Seq+i,
// sent at at0+i*gap under sequence number seq0+i.
type train struct {
	p       Packet
	at0     time.Duration
	gap     time.Duration
	seq0    uint64
	next, n int
}

// SendTrain sends n packets into the link, the i-th at Now()+i*gap: a
// copy of p whose Seq is p.Seq+i, with a fresh NextPacketID and Sent
// stamped as it leaves. It orders the packets exactly as n calls
// SendAt(Now()+i*gap, ...) made now would — all n sequence numbers are
// reserved by this call — but keeps one heap entry for the whole train
// and allocates nothing in steady state. The first packet is sent by the
// event loop, not by this call.
func (l *Link) SendTrain(p Packet, n int, gap time.Duration) {
	if gap < 0 {
		panic(fmt.Sprintf("simnet: negative train gap %v", gap))
	}
	if n <= 0 {
		return
	}
	s := l.sim
	id := s.enqueue(s.now, evTrain)
	s.recs[id].ref = l.h
	s.trains = grow(s.trains, id)
	s.trains[id] = train{p: p, at0: s.now, gap: gap, seq0: s.seq, n: n}
	// enqueue took packet 0's number; reserve the rest.
	s.seq += uint64(n - 1)
	s.pending += n - 1
}

// trainStep sends the train's queued packet, first re-keying its heap
// entry (at the top, key top) to the next packet or retiring the train.
func (l *Link) trainStep(top entry) {
	s := l.sim
	tr := &s.trains[top.id]
	p := tr.p
	p.Seq += int64(tr.next)
	tr.next++
	if tr.next < tr.n {
		s.rekeyTop(tr.at0+time.Duration(tr.next)*tr.gap, tr.seq0+uint64(tr.next))
	} else {
		s.popTop(top.id)
	}
	p.ID = s.NextPacketID()
	p.Sent = s.now
	l.Send(p)
}

// txDone completes the packet in service (record id, the transmitter's
// entry at the top of the heap): it leaves the queue, enters the delay
// line, and the next queued packet starts transmitting.
func (l *Link) txDone(id int32) {
	l.qbytes -= l.cur.Size
	l.delivered++
	s := l.sim
	now := s.now
	for _, t := range l.taps {
		t.Depart(now, &l.cur, l.qbytes)
	}
	// Departures are serial and the delay is fixed, so the line stays
	// sorted by key; its sequence number is taken here, as a delivery
	// callback scheduled now would take it.
	s.seq++
	s.pending++
	e := inflight{at: now + l.delay, seq: s.seq, p: l.cur}
	if l.line.len() == 0 {
		head := s.alloc(evDeliver)
		s.recs[head].ref = l.h
		s.push(entry{at: e.at, seq: e.seq, id: head})
	}
	l.line.push(e)
	if l.q.len() == 0 {
		l.busy = false
		s.remove(id)
		return
	}
	// The transmitter's entry moves on to the next packet, taking the
	// sequence number a fresh enqueue would take here.
	l.cur = l.q.pop()
	s.seq++
	s.pending++
	s.rekey(id, now+l.rate.TxTime(l.cur.Size), s.seq)
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
	}
	l.dst.Deliver(p)
}

// inflight is one packet on a link's delay line with its delivery key.
type inflight struct {
	at  time.Duration
	seq uint64
	p   Packet
}

// ring is a growable FIFO ring buffer of pointer-free values: steady-state
// push and pop allocate nothing, and pop need not clear the vacated slot.
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
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
