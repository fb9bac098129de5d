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
	"math"
	"math/rand"
	"time"

	"badabing/internal/simnet"
)

// Config parameterizes a flow. The zero value is completed by defaults
// matching the paper's setup.
type Config struct {
	// SegmentSize is the on-the-wire size of a full data segment in
	// bytes. Default 1500 ("full size (1500 bytes) packets").
	SegmentSize int
	// AckSize is the on-the-wire size of an ACK. Default 40.
	AckSize int
	// RcvWnd is the receiver window in segments. Default 256.
	RcvWnd int
	// InitCwnd is the initial congestion window in segments. Default 2.
	InitCwnd float64
	// MinRTO bounds the retransmission timer from below. Default 1s.
	MinRTO time.Duration
	// DelayedAck enables RFC 1122-style delayed acknowledgments at the
	// receiver: every second in-order segment is acknowledged
	// immediately, a lone segment after DelayedAckTimeout; out-of-order
	// segments are always acknowledged immediately so duplicate ACKs
	// still flow for fast retransmit.
	DelayedAck bool
	// DelayedAckTimeout: default 200 ms (only used with DelayedAck).
	DelayedAckTimeout time.Duration
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
	if c.SegmentSize == 0 {
		c.SegmentSize = 1500
	}
	if c.AckSize == 0 {
		c.AckSize = 40
	}
	if c.RcvWnd == 0 {
		c.RcvWnd = 256
	}
	if c.InitCwnd == 0 {
		c.InitCwnd = 2
	}
	if c.MinRTO == 0 {
		c.MinRTO = time.Second
	}
	if c.DelayedAckTimeout == 0 {
		c.DelayedAckTimeout = 200 * time.Millisecond
	}
}

// Flow is a one-directional TCP transfer: a sender pushing data segments
// into a forward link and a receiver returning cumulative ACKs over a
// reverse link. Create one with Start.
type Flow struct {
	sim *simnet.Sim
	id  uint64
	fwd *simnet.Link
	rev *simnet.Link
	cfg Config

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
	rcvNxt  int64
	ooo     map[int64]bool
	ackHeld bool          // one in-order segment awaiting a delayed ACK
	delackT *simnet.Timer // nil unless Config.DelayedAck

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
	cfg.applyDefaults()
	f := &Flow{
		sim:      sim,
		id:       id,
		fwd:      fwd,
		rev:      rev,
		cfg:      cfg,
		cwnd:     cfg.InitCwnd,
		ssthresh: math.Inf(1),
		rto:      cfg.MinRTO,
		rttSeq:   -1,
		ooo:      make(map[int64]bool),
	}
	f.rtoT = sim.NewTimer(f.onRTO)
	if cfg.DelayedAck {
		f.delackT = sim.NewTimer(f.sendAck)
	}
	if cfg.SendJitter > 0 {
		f.jrng = rand.New(rand.NewSource(int64(id)*2654435761 + 1))
	}
	if cfg.TotalBytes > 0 {
		f.total = (cfg.TotalBytes + int64(cfg.SegmentSize) - 1) / int64(cfg.SegmentSize)
	}
	fwdDemux.Register(id, simnet.ReceiverFunc(f.onData))
	revDemux.Register(id, simnet.ReceiverFunc(f.onAck))
	f.trySend()
	return f
}

// ID returns the flow identifier.
func (f *Flow) ID() uint64 { return f.id }

// Done reports whether a finite flow has completed.
func (f *Flow) Done() bool { return f.done }

// Cwnd returns the current congestion window in segments.
func (f *Flow) Cwnd() float64 { return f.cwnd }

// Counters returns cumulative segment counts: first transmissions,
// retransmissions, timeouts and fast retransmits.
func (f *Flow) Counters() (sent, retrans, timeouts, fastRtx uint64) {
	return f.sent, f.retrans, f.timeouts, f.fastRtx
}

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
	p := &simnet.Packet{
		ID:   f.sim.NextPacketID(),
		Flow: f.id,
		Kind: simnet.Data,
		Size: f.cfg.SegmentSize,
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
func (f *Flow) onAck(p *simnet.Packet) {
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
// cumulative ACK (possibly delayed, per Config.DelayedAck).
func (f *Flow) onData(p *simnet.Packet) {
	seq := p.Seq
	inOrder := false
	switch {
	case seq == f.rcvNxt:
		inOrder = true
		f.rcvNxt++
		for f.ooo[f.rcvNxt] {
			delete(f.ooo, f.rcvNxt)
			f.rcvNxt++
		}
	case seq > f.rcvNxt:
		f.ooo[seq] = true
	}
	if !f.cfg.DelayedAck || !inOrder || len(f.ooo) > 0 {
		// Immediate ACK: delayed ACKs are only for clean in-order
		// arrivals; anything else must generate duplicate/teaching
		// ACKs at once.
		f.sendAck()
		return
	}
	if f.ackHeld {
		f.sendAck() // every second segment
		return
	}
	f.ackHeld = true
	f.delackT.Reset(f.cfg.DelayedAckTimeout)
}

// sendAck emits a cumulative ACK and clears any held delayed ACK.
func (f *Flow) sendAck() {
	if f.ackHeld {
		f.ackHeld = false
		f.delackT.Stop()
	}
	f.rev.Send(&simnet.Packet{
		ID:   f.sim.NextPacketID(),
		Flow: f.id,
		Kind: simnet.Ack,
		Size: f.cfg.AckSize,
		Seq:  f.rcvNxt,
		Sent: f.sim.Now(),
	})
}
