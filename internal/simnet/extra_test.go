package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestLinkZeroDelayDelivery(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	l := NewLink(s, Rate(8_000_000), 0, 10_000, dst)
	s.Schedule(0, func() { l.Send(mkpkt(s, 1000)) })
	s.Run(time.Second)
	if len(dst.pkts) != 1 || dst.at[0] != time.Millisecond {
		t.Fatalf("zero-delay delivery at %v, want 1ms (tx only)", dst.at)
	}
}

func TestNewLinkValidation(t *testing.T) {
	s := New()
	for _, tc := range []struct {
		rate Rate
		qcap int
	}{
		{0, 1000},
		{-5, 1000},
		{8_000_000, 0},
		{8_000_000, -1},
	} {
		tc := tc
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(rate=%d, qcap=%d) did not panic", tc.rate, tc.qcap)
				}
			}()
			NewLink(s, tc.rate, 0, tc.qcap, &collect{sim: s})
		}()
	}
}

// Property: packet conservation — every packet sent is either delivered
// or dropped, never both, never lost by the machinery itself.
func TestLinkConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		s := New()
		dst := &collect{sim: s}
		l := NewLink(s, Rate(8_000_000), time.Millisecond, 5_000, dst)
		tap := &packetLog{}
		l.AddTap(tap)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(50)) * time.Millisecond
			s.ScheduleAt(at, func() { l.Send(mkpkt(s, 200+rng.Intn(1300))) })
		}
		s.Run(time.Minute)
		arrived, dropped, delivered := l.Stats()
		if arrived != uint64(n) {
			return false
		}
		if dropped+delivered != arrived {
			return false
		}
		if len(dst.pkts) != int(delivered) {
			return false
		}
		if len(tap.dropped) != int(dropped) || len(tap.departed) != int(delivered) {
			return false
		}
		return l.qbytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLinkMixedSizesSerializationOrder(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	l := NewLink(s, Rate(8_000_000), 0, 1_000_000, dst)
	sizes := []int{1500, 40, 600, 1500, 40}
	s.Schedule(0, func() {
		for i, sz := range sizes {
			p := mkpkt(s, sz)
			p.Seq = int64(i)
			l.Send(p)
		}
	})
	s.Run(time.Second)
	if len(dst.pkts) != len(sizes) {
		t.Fatalf("delivered %d, want %d", len(dst.pkts), len(sizes))
	}
	var want time.Duration
	for i, sz := range sizes {
		want += Rate(8_000_000).TxTime(sz)
		if dst.pkts[i].Seq != int64(i) {
			t.Fatalf("order violated at %d", i)
		}
		if dst.at[i] != want {
			t.Fatalf("packet %d delivered at %v, want %v", i, dst.at[i], want)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Data: "data", Ack: "ack", Probe: "probe", Kind(99): "unknown"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestReceiverFunc(t *testing.T) {
	called := 0
	r := ReceiverFunc(func(Packet) { called++ })
	r.Deliver(Packet{})
	if called != 1 {
		t.Fatal("ReceiverFunc did not invoke the function")
	}
}

func TestDumbbellCustomConfig(t *testing.T) {
	s := New()
	d := NewDumbbell(s, DumbbellConfig{
		BottleneckRate: Rate(10_000_000),
		OneWayDelay:    5 * time.Millisecond,
		QueueDuration:  20 * time.Millisecond,
	})
	if d.Bottleneck.Rate() != Rate(10_000_000) {
		t.Error("custom rate ignored")
	}
	if d.Bottleneck.delay != 5*time.Millisecond || d.Reverse.delay != 5*time.Millisecond {
		t.Errorf("one-way delays %v and %v, want 5ms", d.Bottleneck.delay, d.Reverse.delay)
	}
	if got, want := d.Bottleneck.QueueCap(), Rate(10_000_000).Bytes(20*time.Millisecond); got != want {
		t.Errorf("queue cap %d, want %d", got, want)
	}
}

func TestSimRunTwiceContinues(t *testing.T) {
	s := New()
	var hits []time.Duration
	for _, d := range []time.Duration{time.Second, 3 * time.Second} {
		d := d
		s.Schedule(d, func() { hits = append(hits, s.Now()) })
	}
	s.Run(2 * time.Second)
	if len(hits) != 1 {
		t.Fatalf("after first Run: %d events, want 1", len(hits))
	}
	s.Run(5 * time.Second)
	if len(hits) != 2 {
		t.Fatalf("after second Run: %d events, want 2", len(hits))
	}
}
