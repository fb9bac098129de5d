package simnet

import (
	"testing"
	"time"
)

// collect is a Receiver that records deliveries with timestamps.
type collect struct {
	sim  *Sim
	pkts []Packet
	at   []time.Duration
}

func (c *collect) Deliver(p Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.sim.Now())
}

// packetLog is a Tap that copies every packet it is shown.
type packetLog struct{ arrived, dropped, departed []Packet }

func (l *packetLog) Arrive(_ time.Duration, p *Packet, _ int) { l.arrived = append(l.arrived, *p) }
func (l *packetLog) Dropped(_ time.Duration, p *Packet, _ Drop) {
	l.dropped = append(l.dropped, *p)
}
func (l *packetLog) Depart(_ time.Duration, p *Packet, _ int) { l.departed = append(l.departed, *p) }

func mkpkt(s *Sim, size int) Packet {
	return Packet{ID: s.NextPacketID(), Size: size, Sent: s.Now()}
}

func TestLinkDeliveryTiming(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	// 8 Mb/s: a 1000-byte packet serializes in exactly 1 ms.
	l := NewLink(s, Rate(8_000_000), 10*time.Millisecond, 100_000, dst)
	s.Schedule(0, func() { l.Send(mkpkt(s, 1000)) })
	s.Run(time.Second)
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.pkts))
	}
	if want := 11 * time.Millisecond; dst.at[0] != want {
		t.Fatalf("delivered at %v, want %v (tx 1ms + prop 10ms)", dst.at[0], want)
	}
}

func TestLinkFIFOOrderAndSerialization(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	l := NewLink(s, Rate(8_000_000), 0, 1_000_000, dst)
	s.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			p := mkpkt(s, 1000)
			p.Seq = int64(i)
			l.Send(p)
		}
	})
	s.Run(time.Second)
	if len(dst.pkts) != 5 {
		t.Fatalf("delivered %d, want 5", len(dst.pkts))
	}
	for i, p := range dst.pkts {
		if p.Seq != int64(i) {
			t.Errorf("delivery %d has seq %d, want %d (FIFO violated)", i, p.Seq, i)
		}
		if want := time.Duration(i+1) * time.Millisecond; dst.at[i] != want {
			t.Errorf("delivery %d at %v, want %v (back-to-back serialization)", i, dst.at[i], want)
		}
	}
}

func TestLinkDropTail(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	// Queue capacity of exactly 3 × 1000 B. Sending 6 back-to-back: the
	// first starts transmitting (in-service byte accounting), so the
	// buffer holds it plus two more; the rest drop.
	l := NewLink(s, Rate(8_000_000), 0, 3000, dst)
	tap := &packetLog{}
	l.AddTap(tap)
	s.Schedule(0, func() {
		for i := 0; i < 6; i++ {
			l.Send(mkpkt(s, 1000))
		}
	})
	s.Run(time.Second)
	if got := len(dst.pkts); got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
	if len(tap.dropped) != 3 {
		t.Fatalf("dropped %d, want 3", len(tap.dropped))
	}
	arrived, dropped, delivered := l.Stats()
	if arrived != 6 || dropped != 3 || delivered != 3 {
		t.Fatalf("stats = (%d,%d,%d), want (6,3,3)", arrived, dropped, delivered)
	}
}

func TestLinkQueueDrainsAndAcceptsAgain(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	l := NewLink(s, Rate(8_000_000), 0, 2000, dst)
	send := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				l.Send(mkpkt(s, 1000))
			}
		}
	}
	s.Schedule(0, send(4))                   // 2 accepted, 2 dropped
	s.Schedule(10*time.Millisecond, send(2)) // queue empty again: both accepted
	s.Run(time.Second)
	if got := len(dst.pkts); got != 4 {
		t.Fatalf("delivered %d, want 4", got)
	}
}

func TestLinkQueueDelayReflectsOccupancy(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	l := NewLink(s, Rate(8_000_000), 0, 100_000, dst)
	s.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			l.Send(mkpkt(s, 1000))
		}
		// 10 packets × 1 ms serialization each queued right now.
		if got, want := l.QueueDelay(), 10*time.Millisecond; got != want {
			t.Errorf("QueueDelay = %v, want %v", got, want)
		}
	})
	s.Run(time.Second)
	if l.qbytes != 0 {
		t.Fatalf("queue not drained: %d bytes", l.qbytes)
	}
}

func TestLinkTapSequence(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	l := NewLink(s, Rate(8_000_000), time.Millisecond, 10_000, dst)
	tap := &packetLog{}
	l.AddTap(tap)
	s.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			l.Send(mkpkt(s, 500))
		}
	})
	s.Run(time.Second)
	if len(tap.arrived) != 4 || len(tap.departed) != 4 || len(tap.dropped) != 0 {
		t.Fatalf("tap saw (%d arrive, %d depart, %d drop), want (4,4,0)",
			len(tap.arrived), len(tap.departed), len(tap.dropped))
	}
}

func TestLinkHeadCompaction(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	l := NewLink(s, Rate(80_000_000), 0, 10_000_000, dst)
	const n = 10_000
	s.Schedule(0, func() {
		for i := 0; i < n; i++ {
			p := mkpkt(s, 100)
			p.Seq = int64(i)
			l.Send(p)
		}
	})
	s.Run(time.Minute)
	if len(dst.pkts) != n {
		t.Fatalf("delivered %d, want %d", len(dst.pkts), n)
	}
	for i, p := range dst.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("FIFO violated at %d after compaction", i)
		}
	}
}

func TestDemuxRouting(t *testing.T) {
	s := New()
	a := &collect{sim: s}
	b := &collect{sim: s}
	d := NewDemux()
	d.Register(1, a)
	d.Register(2, b)
	d.Deliver(Packet{Flow: 1})
	d.Deliver(Packet{Flow: 2})
	d.Deliver(Packet{Flow: 2})
	d.Deliver(Packet{Flow: 99})
	if len(a.pkts) != 1 || len(b.pkts) != 2 {
		t.Fatalf("routed (%d,%d), want (1,2)", len(a.pkts), len(b.pkts))
	}
	if d.Orphans() != 1 {
		t.Fatalf("orphans = %d, want 1", d.Orphans())
	}
	d.Unregister(2)
	d.Deliver(Packet{Flow: 2})
	if d.Orphans() != 2 {
		t.Fatalf("orphans after unregister = %d, want 2", d.Orphans())
	}
}

func TestDemuxFallback(t *testing.T) {
	s := New()
	fb := &collect{sim: s}
	d := NewDemux()
	d.SetFallback(fb)
	d.Deliver(Packet{Flow: 7})
	if len(fb.pkts) != 1 || d.Orphans() != 0 {
		t.Fatalf("fallback got %d pkts, orphans %d; want 1, 0", len(fb.pkts), d.Orphans())
	}
}

func TestDumbbellDefaults(t *testing.T) {
	s := New()
	d := NewDumbbell(s, DumbbellConfig{})
	if d.Bottleneck.Rate() != OC3 {
		t.Errorf("bottleneck rate = %d, want OC3", d.Bottleneck.Rate())
	}
	if d.Bottleneck.delay != 50*time.Millisecond || d.Reverse.delay != 50*time.Millisecond {
		t.Errorf("one-way delays %v and %v, want 50ms", d.Bottleneck.delay, d.Reverse.delay)
	}
	// 100 ms of OC3 ≈ 1.944 MB.
	wantQ := OC3.Bytes(100 * time.Millisecond)
	if d.Bottleneck.QueueCap() != wantQ {
		t.Errorf("queue cap = %d, want %d", d.Bottleneck.QueueCap(), wantQ)
	}
}

func TestDumbbellEndToEnd(t *testing.T) {
	s := New()
	d := NewDumbbell(s, DumbbellConfig{})
	sink := &collect{sim: s}
	d.FwdDemux.Register(42, sink)
	s.Schedule(0, func() {
		d.Bottleneck.Send(Packet{ID: s.NextPacketID(), Flow: 42, Size: 1500})
	})
	s.Run(time.Second)
	if len(sink.pkts) != 1 {
		t.Fatalf("delivered %d, want 1", len(sink.pkts))
	}
	// ~50 ms prop + ~77 µs serialization at OC3.
	if sink.at[0] < 50*time.Millisecond || sink.at[0] > 51*time.Millisecond {
		t.Fatalf("delivery at %v, want ≈50ms", sink.at[0])
	}
}

func checkPackets(t *testing.T, what string, got, want []Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %d packets, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s #%d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// Taps see the link's own copy of each packet. Every Arrive, Dropped and
// Depart must report the packet actually arriving, dropped or departing,
// also while the link is busy and its queue overflows.
func TestLinkTapsSeeOwnPacket(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	// 1000-byte packets serialize in 1 ms; the buffer holds three.
	l := NewLink(s, Rate(8_000_000), time.Millisecond, 3000, dst)
	tap := &packetLog{}
	l.AddTap(tap)
	var sent []Packet
	burst := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				k := len(sent)
				p := Packet{ID: s.NextPacketID(), Flow: uint64(10 + k), Kind: Kind(k % 3), Size: 1000, Seq: int64(100 + k), Sent: s.Now()}
				sent = append(sent, p)
				l.Send(p)
			}
		}
	}
	s.Schedule(0, burst(6))                     // 1 in service, 2 queued, 3 dropped
	s.Schedule(1500*time.Microsecond, burst(3)) // after one departure: 1 queued, 2 dropped
	s.Schedule(2500*time.Microsecond, burst(1)) // after two: queued
	s.Run(time.Second)
	checkPackets(t, "arrived", tap.arrived, sent)
	checkPackets(t, "dropped", tap.dropped, []Packet{sent[3], sent[4], sent[5], sent[7], sent[8]})
	kept := []Packet{sent[0], sent[1], sent[2], sent[6], sent[9]}
	checkPackets(t, "departed", tap.departed, kept)
	checkPackets(t, "delivered", dst.pkts, kept)
}

// aqmLog wraps an AQM and copies every packet it is asked to admit with
// the verdict.
type aqmLog struct {
	inner   AQM
	seen    []Packet
	refused []Packet
}

func (a *aqmLog) Admit(p *Packet, queuedBytes int) bool {
	a.seen = append(a.seen, *p)
	ok := a.inner.Admit(p, queuedBytes)
	if !ok {
		a.refused = append(a.refused, *p)
	}
	return ok
}

// A packet the AQM refuses is shown to Admit with its own fields, and the
// Dropped tap reports that same packet.
func TestAQMSeesOwnPacket(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	l := NewLink(s, Rate(8_000_000), 0, 100_000, dst)
	// Wq 1 makes RED's average the instantaneous backlog: the first two
	// packets are admitted (0 and 1000 bytes queued, no drop
	// probability yet) and every later one meets MaxTh and is refused.
	aqm := &aqmLog{inner: NewRED(REDConfig{MinTh: 1000, MaxTh: 2000, Wq: 1})}
	l.SetAQM(aqm)
	tap := &packetLog{}
	l.AddTap(tap)
	var sent []Packet
	s.Schedule(0, func() {
		for k := 0; k < 5; k++ {
			p := Packet{ID: s.NextPacketID(), Flow: uint64(20 + k), Size: 1000, Seq: int64(7 * k), Sent: s.Now()}
			sent = append(sent, p)
			l.Send(p)
		}
	})
	s.Run(time.Second)
	checkPackets(t, "shown to Admit", aqm.seen, sent)
	checkPackets(t, "refused", aqm.refused, sent[2:])
	checkPackets(t, "dropped", tap.dropped, sent[2:])
	checkPackets(t, "delivered", dst.pkts, sent[:2])
}
