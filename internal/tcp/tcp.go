// Package tcp implements a packet-level TCP Reno model running over the
// simnet simulator.
//
// The paper's first cross-traffic scenario uses 40 "infinite TCP sources"
// with 256-packet receive windows; the resulting congestion-avoidance
// synchronization produces the periodic loss episodes of Figure 4. This
// model implements the mechanisms that matter for that queue dynamic: slow
// start, congestion avoidance, fast retransmit/fast recovery, retransmission
// timeouts with Karn's algorithm and exponential backoff, and a bounded
// receive window. Data and ACK segments are real simulated packets subject
// to loss and queueing on the simulated path.
package tcp

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"badabing/internal/simnet"
)

// The paper's sources send full-size segments ("full size (1500 bytes)
// packets", §4); every flow shares these.
const (
	// segmentSize is the on-the-wire size of a full data segment in
	// bytes.
	segmentSize = 1500
	// ackSize is the on-the-wire size of an ACK.
	ackSize = 40
	// initCwnd is the initial congestion window in segments.
	initCwnd = 2
)

// Config parameterizes a flow. The zero value is completed by defaults
// matching the paper's setup.
type Config struct {
	// RcvWnd is the receiver window in segments. Default 256.
	RcvWnd int
	// MinRTO bounds the retransmission timer from below. Default 1s.
	MinRTO time.Duration
	// SendJitter, when positive, delays each data segment by a uniform
	// random amount up to this bound, modeling host-side processing
	// variability. Without it, deterministic simulation phase-locks
	// flows to the bottleneck's drop instants so losses concentrate on
	// a few unlucky flows — a well-known simulation artifact (Floyd &
	// Jacobson's "phase effects") that real hosts do not exhibit.
	// Intra-flow packet order is preserved.
	SendJitter time.Duration
	// TotalBytes, when positive, makes the flow finite: it closes after
	// transferring this many bytes. Zero means an infinite source.
	TotalBytes int64
	// OnComplete, if non-nil, is invoked once when a finite flow
	// delivers its last byte.
	OnComplete func()
}

func (c *Config) applyDefaults() {
	if c.RcvWnd == 0 {
		c.RcvWnd = 256
	}
	if c.MinRTO == 0 {
		c.MinRTO = time.Second
	}
}

// Flow is a one-directional TCP transfer: a sender pushing data segments
// into a forward link and a receiver returning cumulative ACKs over a
// reverse link. Create one with Start; Restart runs a finished flow
// again. A flow binds its timer and receivers once, so a restart
// allocates nothing.
type Flow struct {
	sim      *simnet.Sim
	id       uint64
	fwd      *simnet.Link
	rev      *simnet.Link
	fwdDemux *simnet.Demux
	revDemux *simnet.Demux
	cfg      Config

	// Sender state. Sequence numbers count whole segments.
	cwnd     float64
	ssthresh float64
	sndUna   int64 // lowest unacknowledged segment
	sndNxt   int64 // next new segment to send
	dupacks  int
	inFR     bool  // in fast recovery
	recover  int64 // highest segment outstanding when loss was detected
	total    int64 // segments to send; 0 = infinite
	done     bool

	// RTT estimation (Karn: one timed, never-retransmitted segment).
	srtt    time.Duration
	rttvar  time.Duration
	rto     time.Duration
	backoff int
	rttSeq  int64
	rttAt   time.Duration

	rtoT *simnet.Timer

	jrng     *rand.Rand
	lastSend time.Duration

	// Receiver state.
	rcvNxt int64
	ooo    window // segments above rcvNxt received out of order

	// Counters.
	sent     uint64
	retrans  uint64
	timeouts uint64
	fastRtx  uint64
	acked    int64
}

// Start creates a flow with the given id, registers its receiver on
// fwdDemux and its sender (for ACKs) on revDemux, and begins transmitting
// immediately.
func Start(sim *simnet.Sim, id uint64, fwd, rev *simnet.Link, fwdDemux, revDemux *simnet.Demux, cfg Config) *Flow {
	f := &Flow{sim: sim, fwd: fwd, rev: rev, fwdDemux: fwdDemux, revDemux: revDemux}
	f.rtoT = sim.NewTimer(f.onRTO)
	f.begin(id, cfg)
	return f
}

// Restart starts a finished flow again as a fresh transfer under a new
// id, on the same links and demuxes, exactly as Start(…, id, …, cfg)
// would: the old id's routes are removed and the new id's registered.
// It panics if the flow has not finished.
func (f *Flow) Restart(id uint64, cfg Config) {
	if !f.done {
		panic("tcp: Restart of a flow that has not finished")
	}
	f.fwdDemux.Unregister(f.id)
	f.revDemux.Unregister(f.id)
	f.begin(id, cfg)
}

// begin resets every per-transfer field, keeping the flow's bindings
// (links, demuxes, timer, jitter RNG and window storage), registers id
// and starts sending.
func (f *Flow) begin(id uint64, cfg Config) {
	cfg.applyDefaults()
	f.rtoT.Stop()
	*f = Flow{
		sim: f.sim, id: id, fwd: f.fwd, rev: f.rev,
		fwdDemux: f.fwdDemux, revDemux: f.revDemux, cfg: cfg,
		cwnd:     initCwnd,
		ssthresh: math.Inf(1),
		rto:      cfg.MinRTO,
		rttSeq:   -1,
		rtoT:     f.rtoT,
		jrng:     f.jrng,
		ooo:      f.ooo,
	}
	f.ooo.reset(cfg.RcvWnd)
	if cfg.SendJitter > 0 {
		seed := int64(id)*2654435761 + 1
		if f.jrng == nil {
			f.jrng = rand.New(rand.NewSource(seed))
		} else {
			f.jrng.Seed(seed)
		}
	} else {
		f.jrng = nil
	}
	if cfg.TotalBytes > 0 {
		f.total = (cfg.TotalBytes + segmentSize - 1) / segmentSize
	}
	f.fwdDemux.Register(id, (*dataReceiver)(f))
	f.revDemux.Register(id, (*ackReceiver)(f))
	f.trySend()
}

// dataReceiver and ackReceiver are the flow's two ends as demux
// receivers. Converting a *Flow to either stores a pointer in the
// interface, so registering one allocates nothing.
type (
	dataReceiver Flow
	ackReceiver  Flow
)

func (r *dataReceiver) Deliver(p simnet.Packet) { (*Flow)(r).onData(p) }
func (r *ackReceiver) Deliver(p simnet.Packet)  { (*Flow)(r).onAck(p) }

// AckedSegments returns how many segments have been cumulatively
// acknowledged.
func (f *Flow) AckedSegments() int64 { return f.acked }

func (f *Flow) window() int64 {
	w := int64(f.cwnd)
	if w < 1 {
		w = 1
	}
	if rw := int64(f.cfg.RcvWnd); w > rw {
		w = rw
	}
	return w
}

func (f *Flow) trySend() {
	if f.done {
		return
	}
	for f.sndNxt-f.sndUna < f.window() {
		if f.total > 0 && f.sndNxt >= f.total {
			break
		}
		f.sendSeg(f.sndNxt, false)
		f.sndNxt++
	}
}

func (f *Flow) sendSeg(seq int64, isRetrans bool) {
	now := f.sim.Now()
	sendAt := now
	if f.jrng != nil {
		sendAt = now + time.Duration(f.jrng.Int63n(int64(f.cfg.SendJitter)))
		if sendAt <= f.lastSend {
			sendAt = f.lastSend + time.Nanosecond
		}
		f.lastSend = sendAt
	}
	p := simnet.Packet{
		ID:   f.sim.NextPacketID(),
		Flow: f.id,
		Kind: simnet.Data,
		Size: segmentSize,
		Seq:  seq,
		Sent: sendAt,
	}
	if isRetrans {
		f.retrans++
		if seq <= f.rttSeq {
			f.rttSeq = -1 // Karn: abandon the timing sample
		}
	} else {
		f.sent++
		if f.rttSeq < 0 {
			f.rttSeq = seq
			f.rttAt = sendAt
		}
	}
	if sendAt == now {
		f.fwd.Send(p)
	} else {
		f.fwd.SendAt(sendAt, p)
	}
	if !f.rtoT.Armed() {
		f.armRTO()
	}
}

// armRTO (re)starts the retransmission timer from now.
func (f *Flow) armRTO() {
	d := f.rto << f.backoff
	if max := 60 * time.Second; d > max {
		d = max
	}
	f.rtoT.Reset(d)
}

func (f *Flow) onRTO() {
	if f.sndUna >= f.sndNxt {
		return // nothing outstanding
	}
	f.timeouts++
	flight := float64(f.sndNxt - f.sndUna)
	f.ssthresh = math.Max(flight/2, 2)
	f.cwnd = 1
	f.dupacks = 0
	f.inFR = false
	f.backoff++
	f.sendSeg(f.sndUna, true)
	f.armRTO()
}

// onAck handles an ACK arriving at the sender. The packet's Seq carries
// the receiver's next expected segment (a cumulative ACK).
func (f *Flow) onAck(p simnet.Packet) {
	if f.done {
		return
	}
	ackNo := p.Seq
	switch {
	case ackNo > f.sndUna:
		f.newAck(ackNo)
	case ackNo == f.sndUna:
		f.dupAck()
	}
	f.trySend()
}

func (f *Flow) newAck(ackNo int64) {
	now := f.sim.Now()
	// RTT sample if the timed segment is covered and was never
	// retransmitted.
	if f.rttSeq >= 0 && ackNo > f.rttSeq {
		f.sampleRTT(now - f.rttAt)
		f.rttSeq = -1
	}
	f.acked += ackNo - f.sndUna
	f.sndUna = ackNo
	f.backoff = 0
	f.dupacks = 0

	if f.inFR {
		if ackNo > f.recover {
			// Full ACK: leave recovery, deflate.
			f.inFR = false
			f.cwnd = f.ssthresh
		} else {
			// Partial ACK (NewReno): retransmit the next hole and
			// stay in recovery.
			f.sendSeg(f.sndUna, true)
		}
	} else if f.cwnd < f.ssthresh {
		f.cwnd++ // slow start
	} else {
		f.cwnd += 1 / f.cwnd // congestion avoidance
	}
	// Never grow the congestion window beyond what the receive window
	// lets us use (RFC 2861-style validation): unbounded growth while
	// rwnd-limited would make later loss responses meaningless.
	if max := float64(f.cfg.RcvWnd); f.cwnd > max {
		f.cwnd = max
	}

	if f.total > 0 && f.sndUna >= f.total {
		f.finish()
		return
	}
	if f.sndUna >= f.sndNxt {
		f.rtoT.Stop()
	} else {
		f.armRTO()
	}
}

func (f *Flow) dupAck() {
	f.dupacks++
	if f.inFR {
		f.cwnd++ // window inflation
		return
	}
	if f.dupacks == 3 {
		f.fastRtx++
		flight := float64(f.sndNxt - f.sndUna)
		f.ssthresh = math.Max(flight/2, 2)
		f.cwnd = f.ssthresh + 3
		f.recover = f.sndNxt - 1
		f.inFR = true
		f.sendSeg(f.sndUna, true)
		f.armRTO()
	}
}

func (f *Flow) sampleRTT(s time.Duration) {
	if f.srtt == 0 {
		f.srtt = s
		f.rttvar = s / 2
	} else {
		d := f.srtt - s
		if d < 0 {
			d = -d
		}
		f.rttvar = (3*f.rttvar + d) / 4
		f.srtt = (7*f.srtt + s) / 8
	}
	f.rto = f.srtt + 4*f.rttvar
	if f.rto < f.cfg.MinRTO {
		f.rto = f.cfg.MinRTO
	}
}

func (f *Flow) finish() {
	f.done = true
	f.rtoT.Stop()
	if f.cfg.OnComplete != nil {
		f.cfg.OnComplete()
	}
}

// onData handles a data segment arriving at the receiver and returns a
// cumulative ACK.
func (f *Flow) onData(p simnet.Packet) {
	seq := p.Seq
	switch {
	case seq == f.rcvNxt:
		f.rcvNxt++
		for f.ooo.n > 0 && f.ooo.take(f.rcvNxt) {
			f.rcvNxt++
		}
	case seq > f.rcvNxt:
		// The sender keeps less than a receive window outstanding
		// beyond the last ACK, so a segment past the window is a bug.
		if seq-f.rcvNxt >= int64(f.cfg.RcvWnd) {
			panic(fmt.Sprintf("tcp: flow %d: segment %d beyond the receive window at %d+%d", f.id, seq, f.rcvNxt, f.cfg.RcvWnd))
		}
		f.ooo.add(seq)
	}
	f.rev.Send(simnet.Packet{
		ID:   f.sim.NextPacketID(),
		Flow: f.id,
		Kind: simnet.Ack,
		Size: ackSize,
		Seq:  f.rcvNxt,
		Sent: f.sim.Now(),
	})
}

// window is a set of segment numbers within one receive window of each
// other, kept as a bitset indexed by segment number modulo its size (a
// power of two, at least the window).
type window struct {
	words []uint64
	n     int // members
}

// reset empties the set and sizes it for a window of wnd segments.
func (w *window) reset(wnd int) {
	size := max(64, 1<<bits.Len(uint(wnd-1)))
	if len(w.words) != size/64 {
		w.words = make([]uint64, size/64)
	} else {
		clear(w.words)
	}
	w.n = 0
}

func (w *window) bit(seq int64) (word int, mask uint64) {
	i := uint64(seq) & uint64(64*len(w.words)-1)
	return int(i / 64), 1 << (i % 64)
}

// add inserts seq; adding a member again changes nothing.
func (w *window) add(seq int64) {
	i, m := w.bit(seq)
	if w.words[i]&m == 0 {
		w.words[i] |= m
		w.n++
	}
}

// take removes seq and reports whether it was a member.
func (w *window) take(seq int64) bool {
	i, m := w.bit(seq)
	if w.words[i]&m == 0 {
		return false
	}
	w.words[i] &^= m
	w.n--
	return true
}
