package simnet

import (
	"testing"
	"time"
)

func TestREDValidation(t *testing.T) {
	for _, c := range []REDConfig{
		{MinTh: 0, MaxTh: 100},
		{MinTh: 100, MaxTh: 100},
		{MinTh: 200, MaxTh: 100},
	} {
		c := c
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RED(%+v) accepted", c)
				}
			}()
			NewRED(c)
		}()
	}
}

func TestREDNoDropsBelowMinTh(t *testing.T) {
	r := NewRED(REDConfig{MinTh: 10_000, MaxTh: 30_000})
	for i := 0; i < 1000; i++ {
		if !r.Admit(nil, 5_000) {
			t.Fatal("drop below MinTh")
		}
	}
}

func TestREDAlwaysDropsAboveMaxTh(t *testing.T) {
	r := NewRED(REDConfig{MinTh: 10_000, MaxTh: 30_000})
	// Drive the EWMA well above MaxTh.
	for i := 0; i < 5000; i++ {
		r.Admit(nil, 60_000)
	}
	if r.avg < 30_000 {
		t.Fatalf("EWMA %v did not reach MaxTh", r.avg)
	}
	for i := 0; i < 100; i++ {
		if r.Admit(nil, 60_000) {
			t.Fatal("admit above MaxTh")
		}
	}
}

func TestREDIntermediateDropRate(t *testing.T) {
	r := NewRED(REDConfig{MinTh: 10_000, MaxTh: 30_000, MaxP: 0.1, Seed: 3})
	// Hold occupancy at the midpoint: expected drop prob ≈ MaxP/2 = 5%
	// (slightly higher with the spacing correction).
	for i := 0; i < 10_000; i++ {
		r.Admit(nil, 20_000)
	}
	drops := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		if !r.Admit(nil, 20_000) {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.02 || rate > 0.15 {
		t.Fatalf("midpoint drop rate %.3f, want ≈0.05", rate)
	}
}

func TestREDOnLinkSpreadsDrops(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	// 8 Mb/s, 50 ms buffer.
	l := NewLink(s, Rate(8_000_000), 0, 50_000, dst)
	// Wq sized for this queue's ≈100 ms fill time at 1000 packets/s;
	// the canonical 0.002 would track too slowly to prevent tail hits.
	l.SetAQM(NewRED(REDConfig{MinTh: 12_500, MaxTh: 37_500, MaxP: 0.1, Wq: 0.05, Seed: 7}))
	// Offered load 1.5x for two seconds: drop-tail would hold the queue
	// pinned at 100% and drop in bursts; RED must keep the backlog near
	// the thresholds instead.
	ival := Rate(12_000_000).TxTime(1000)
	n := int(2 * time.Second / ival)
	var maxQ int
	for i := 0; i < n; i++ {
		at := time.Duration(i) * ival
		s.ScheduleAt(at, func() {
			l.Send(Packet{ID: s.NextPacketID(), Kind: Data, Size: 1000})
			// Ignore the warm-up transient: the EWMA needs time to
			// catch up with the instantaneous queue (classic RED).
			if s.Now() > 500*time.Millisecond && l.qbytes > maxQ {
				maxQ = l.qbytes
			}
		})
	}
	s.Run(5 * time.Second)
	_, dropped, delivered := l.Stats()
	if dropped == 0 {
		t.Fatal("no drops under sustained overload")
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// In steady state RED should keep the queue around MaxTh, well
	// below the hard cap.
	if maxQ >= 45_000 {
		t.Errorf("steady-state queue %d bytes despite RED (cap 50000)", maxQ)
	}
	// Roughly a third of offered load must drop (input 1.5x capacity).
	rate := float64(dropped) / float64(dropped+delivered)
	if rate < 0.15 || rate > 0.5 {
		t.Errorf("drop rate %.3f, want ≈1/3", rate)
	}
}

func TestDropTailUnaffectedWithoutAQM(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	l := NewLink(s, Rate(8_000_000), 0, 3000, dst)
	s.Schedule(0, func() {
		for i := 0; i < 6; i++ {
			l.Send(mkpkt(s, 1000))
		}
	})
	s.Run(time.Second)
	if _, dropped, _ := l.Stats(); dropped != 3 {
		t.Fatalf("drop-tail behavior changed: %d drops, want 3", dropped)
	}
}
