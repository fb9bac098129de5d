//go:build !race

// Zero-allocation pins for the event core. Every table and figure runs
// through these paths once per packet or per timer re-arm, and packets
// travel by value, so none of them may allocate. Gated from -race
// because the race runtime adds its own allocations.
package simnet

import (
	"testing"
	"time"
)

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm up: one-time growth (heap, record table, rings) is allowed
	if avg := testing.AllocsPerRun(500, f); avg != 0 {
		t.Errorf("%s allocates %.2f times per run, want 0", name, avg)
	}
}

// TestLinkTransmitDeliverZeroAlloc pins a packet's whole trip across a
// link — enqueue behind others, transmit, delay line, delivery — and a
// deferred SendAt at zero allocations.
func TestLinkTransmitDeliverZeroAlloc(t *testing.T) {
	s := New()
	var delivered int
	l := NewLink(s, Rate(8_000_000), time.Millisecond, 1<<20, ReceiverFunc(func(Packet) { delivered++ }))
	pkts := []Packet{{Size: 1000}, {Size: 500}, {Size: 100}}
	assertZeroAllocs(t, "Link.Send+transmit+deliver", func() {
		for _, p := range pkts {
			l.Send(p)
		}
		s.Run(s.Now() + 10*time.Millisecond)
	})
	assertZeroAllocs(t, "Link.SendAt", func() {
		l.SendAt(s.Now()+time.Microsecond, pkts[0])
		s.Run(s.Now() + 10*time.Millisecond)
	})
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestChainHopPerPacketZeroAlloc pins a packet's forward from one hop to
// the next: delivery into the first hop's demux, its fallback and the
// second hop's Send copy the packet and allocate nothing.
func TestChainHopPerPacketZeroAlloc(t *testing.T) {
	s := New()
	c := NewChain(s, ChainConfig{Hops: 2})
	var delivered int
	c.FwdDemux.Register(42, ReceiverFunc(func(Packet) { delivered++ }))
	assertZeroAllocs(t, "Chain hop forward", func() {
		for k := 0; k < 4; k++ {
			c.Entry().Send(Packet{ID: s.NextPacketID(), Flow: 42, Size: 1500, Sent: s.Now()})
		}
		s.Run(s.Now() + 100*time.Millisecond)
	})
	if arrived, _, _ := c.Hops[1].Stats(); delivered == 0 || arrived != uint64(delivered) {
		t.Fatalf("hop 1 saw %d packets and %d were delivered", arrived, delivered)
	}
}

func TestTimerZeroAlloc(t *testing.T) {
	s := New()
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	other := s.NewTimer(func() {})
	other.Reset(time.Hour) // keep a second entry on the heap
	assertZeroAllocs(t, "Timer.Reset/Stop", func() {
		tm.Reset(2 * time.Millisecond)
		tm.Reset(time.Millisecond) // earlier
		tm.Reset(3 * time.Millisecond)
		tm.Stop()
		tm.Reset(time.Millisecond)
		s.Run(s.Now() + 5*time.Millisecond)
	})
	if fired == 0 {
		t.Fatal("timer never fired")
	}
}

func TestStreamStepZeroAlloc(t *testing.T) {
	s := New()
	steps := 0
	s.ScheduleEach(1<<30, func(i int) time.Duration { return time.Duration(i) * time.Microsecond }, func(int) { steps++ })
	assertZeroAllocs(t, "stream step", func() {
		s.Run(s.Now() + time.Microsecond)
	})
	if steps < 500 {
		t.Fatalf("stream ran %d steps", steps)
	}
}

// TestTrainZeroAlloc pins a packet train: its one heap entry steps from
// packet to packet, each stamped and sent into a busy link, and retires
// without an allocation.
func TestTrainZeroAlloc(t *testing.T) {
	s := New()
	var delivered int
	l := NewLink(s, Rate(8_000_000), time.Millisecond, 1<<20, ReceiverFunc(func(Packet) { delivered++ }))
	assertZeroAllocs(t, "Link.SendTrain", func() {
		l.SendTrain(Packet{Flow: 7, Kind: Probe, Size: 600}, 5, 30*time.Microsecond)
		s.Run(s.Now() + 10*time.Millisecond)
	})
	if delivered != 5*502 {
		t.Fatalf("delivered %d packets, want %d", delivered, 5*502)
	}
}
