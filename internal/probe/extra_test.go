package probe

import (
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/simnet"
)

func TestProberOWDTracksQueueDelay(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	p := NewProber(s, d.Bottleneck, 9, 600, time.Microsecond)
	d.FwdDemux.Register(9, p.Receiver())
	// Pre-load the queue with ~50 ms of traffic, then probe.
	s.Schedule(0, func() {
		bytes := d.Bottleneck.Rate().Bytes(50 * time.Millisecond)
		for sent := 0; sent < bytes; sent += 1500 {
			d.Bottleneck.Send(&simnet.Packet{
				ID: s.NextPacketID(), Flow: 1, Kind: simnet.Data, Size: 1500,
			})
		}
		p.SendProbe(0, 1)
	})
	s.Run(time.Second)
	res := p.Results()
	// OWD ≈ 50 ms propagation + ~50 ms queueing.
	if res[0].OWD < 95*time.Millisecond || res[0].OWD > 106*time.Millisecond {
		t.Fatalf("OWD = %v, want ≈100ms", res[0].OWD)
	}
}

func TestBadabingObservationsInheritLastOWD(t *testing.T) {
	// A fully lost probe must borrow the most recent successful OWD as
	// its queue-depth estimate (§6.1).
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	bb := StartBadabing(s, d.Bottleneck, d.FwdDemux, 9, BadabingConfig{}, []int64{0, 1})
	// Block the queue entirely during slot 1 by filling it beyond
	// capacity just before.
	s.Schedule(4*time.Millisecond, func() {
		over := d.Bottleneck.QueueCap() * 2
		for sent := 0; sent < over; sent += 1500 {
			d.Bottleneck.Send(&simnet.Packet{
				ID: s.NextPacketID(), Flow: 1, Kind: simnet.Data, Size: 1500,
			})
		}
	})
	s.Run(2 * time.Second)
	obs := bb.Observations()
	if len(obs) != 2 {
		t.Fatalf("got %d observations, want 2", len(obs))
	}
	if obs[1].LostPackets != obs[1].SentPackets {
		t.Skipf("slot-1 probe not fully lost (lost %d/%d)", obs[1].LostPackets, obs[1].SentPackets)
	}
	if obs[1].OWD == 0 {
		t.Fatal("fully lost probe did not inherit the previous OWD")
	}
	if obs[1].OWD != obs[0].OWD {
		t.Fatalf("inherited OWD %v != previous probe's %v", obs[1].OWD, obs[0].OWD)
	}
}

func TestZingFlightCounts(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	z := StartZing(s, d, 9, ZingConfig{
		Mean:    50 * time.Millisecond,
		Flight:  3,
		Horizon: 10 * time.Second,
		Seed:    4,
	})
	s.Run(11 * time.Second)
	rep := z.Report()
	if rep.Probes == 0 {
		t.Fatal("no probes sent")
	}
	for _, o := range z.Results() {
		if o.Sent != 3 {
			t.Fatalf("flight size %d, want 3", o.Sent)
		}
	}
	_ = rep
}

func TestZingConfigDefaults(t *testing.T) {
	var c ZingConfig
	c.applyDefaults()
	if c.Mean != 100*time.Millisecond || c.PacketSize != 256 || c.Flight != 1 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
}

func TestBadabingConfigDefaults(t *testing.T) {
	var c BadabingConfig
	c.applyDefaults()
	if c.Slot != badabing.DefaultSlot || c.PacketsPerProbe != 3 || c.PacketSize != 600 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.PktGap != 30*time.Microsecond {
		t.Fatalf("pkt gap %v, want 30µs (paper's host capability)", c.PktGap)
	}
}

func TestFixedHorizonRespected(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	f := StartFixed(s, d, 9, FixedConfig{
		Interval: 50 * time.Millisecond,
		Horizon:  500 * time.Millisecond,
	})
	s.Run(5 * time.Second)
	res := f.Results()
	for _, o := range res {
		if o.T > 500*time.Millisecond {
			t.Fatalf("probe at %v past the %v horizon", o.T, 500*time.Millisecond)
		}
	}
}

func TestBadabingReportEmptySchedule(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	bb := StartBadabing(s, d.Bottleneck, d.FwdDemux, 9, BadabingConfig{}, nil)
	s.Run(time.Second)
	if obs := bb.Observations(); len(obs) != 0 {
		t.Fatalf("empty schedule produced %d observations", len(obs))
	}
	rep := estimates(t, bb, nil, badabing.MarkerConfig{})
	if rep.M != 0 || rep.HasDuration || rep.Frequency != 0 {
		t.Fatalf("empty schedule produced estimates: %+v", rep)
	}
}
