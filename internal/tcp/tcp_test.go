package tcp

import (
	"testing"
	"time"

	"badabing/internal/simnet"
)

func testbed(cfg simnet.DumbbellConfig) (*simnet.Sim, *simnet.Dumbbell) {
	s := simnet.New()
	return s, simnet.NewDumbbell(s, cfg)
}

func TestFiniteTransferNoLoss(t *testing.T) {
	s, d := testbed(simnet.DumbbellConfig{})
	completed := false
	Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{
		TotalBytes: 150_000, // 100 segments
		OnComplete: func() { completed = true },
	})
	s.Run(30 * time.Second)
	if !completed {
		t.Fatal("transfer did not complete on a clean path")
	}
	_, dropped, _ := [3]uint64{}[0], uint64(0), uint64(0)
	_ = dropped
	if _, drops, _ := d.Bottleneck.Stats(); drops != 0 {
		t.Fatalf("unexpected drops on an uncongested path: %d", drops)
	}
}

func TestFiniteTransferNoRetransWithoutLoss(t *testing.T) {
	s, d := testbed(simnet.DumbbellConfig{})
	f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{
		TotalBytes: 1_500_000,
	})
	s.Run(60 * time.Second)
	if !f.done {
		t.Fatal("transfer incomplete")
	}
	if f.retrans != 0 || f.timeouts != 0 || f.fastRtx != 0 {
		t.Fatalf("spurious recovery on clean path: sent=%d retrans=%d timeouts=%d fastrtx=%d",
			f.sent, f.retrans, f.timeouts, f.fastRtx)
	}
	if f.AckedSegments() != 1000 {
		t.Fatalf("acked %d segments, want 1000", f.AckedSegments())
	}
}

func TestThroughputWindowLimited(t *testing.T) {
	// One flow, huge bottleneck: throughput should be capped by
	// rwnd/RTT = 256*1500B/100ms ≈ 30.7 Mb/s, i.e. ≈ 2560 segs/s.
	s, d := testbed(simnet.DumbbellConfig{BottleneckRate: simnet.GigE})
	f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{})
	s.Run(20 * time.Second)
	rate := float64(f.AckedSegments()) / 20 // segments per second
	if rate < 2000 || rate > 2700 {
		t.Fatalf("window-limited rate = %.0f seg/s, want ≈2560", rate)
	}
}

func TestRecoveryFromLoss(t *testing.T) {
	// Narrow bottleneck with a small queue forces drops; the flow must
	// still complete, using fast retransmit rather than stalling.
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{
		BottleneckRate: simnet.Rate(10_000_000),
		QueueDuration:  20 * time.Millisecond,
	})
	done := false
	f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{
		TotalBytes: 3_000_000,
		OnComplete: func() { done = true },
	})
	s.Run(2 * time.Minute)
	if !done {
		t.Fatal("transfer did not complete despite losses")
	}
	if _, drops, _ := d.Bottleneck.Stats(); drops == 0 {
		t.Fatal("test invalid: no drops induced")
	}
	if f.retrans == 0 {
		t.Fatal("drops occurred but no retransmissions")
	}
	if f.fastRtx == 0 {
		t.Fatal("expected at least one fast retransmit")
	}
}

func TestCwndHalvesOnFastRetransmit(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{
		BottleneckRate: simnet.Rate(10_000_000),
		QueueDuration:  20 * time.Millisecond,
	})
	f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{})
	var peak float64
	var after float64
	found := false
	var poll func()
	poll = func() {
		if f.cwnd > peak && !found {
			peak = f.cwnd
		}
		if f.fastRtx > 0 && !found {
			found = true
			after = f.cwnd
		}
		if !found {
			s.Schedule(time.Millisecond, poll)
		}
	}
	s.Schedule(0, poll)
	s.Run(2 * time.Minute)
	if !found {
		t.Fatal("no fast retransmit observed")
	}
	// Reno sets cwnd to flight/2 + 3 on entry to fast recovery.
	if after > peak {
		t.Fatalf("cwnd did not drop at fast retransmit: peak %.1f, after %.1f", peak, after)
	}
}

func TestManyFlowsSaturateBottleneck(t *testing.T) {
	// The paper's scenario 1: 40 infinite TCP sources sharing the OC3.
	// Aggregate goodput should be near link capacity and the queue must
	// overflow periodically.
	s, d := testbed(simnet.DumbbellConfig{})
	flows := make([]*Flow, 40)
	for i := range flows {
		flows[i] = Start(s, uint64(i+1), d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{})
	}
	s.Run(10 * time.Second) // warm up past slow start
	var base int64
	for _, f := range flows {
		base += f.AckedSegments()
	}
	const dur = 30 * time.Second
	s.Run(10*time.Second + dur)
	var acked int64
	for _, f := range flows {
		acked += f.AckedSegments()
	}
	acked -= base
	gbps := float64(acked) * 1500 * 8 / dur.Seconds()
	util := gbps / float64(simnet.OC3)
	if util < 0.85 {
		t.Fatalf("aggregate utilization %.2f, want ≥0.85 (link should saturate)", util)
	}
	if _, drops, _ := d.Bottleneck.Stats(); drops == 0 {
		t.Fatal("saturated link with 100ms buffer produced no drops")
	}
}

func TestFlowIsolationByID(t *testing.T) {
	s, d := testbed(simnet.DumbbellConfig{})
	var doneA, doneB bool
	Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{
		TotalBytes: 150_000, OnComplete: func() { doneA = true }})
	Start(s, 2, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{
		TotalBytes: 150_000, OnComplete: func() { doneB = true }})
	s.Run(time.Minute)
	if !doneA || !doneB {
		t.Fatalf("flows did not both complete: A=%v B=%v", doneA, doneB)
	}
	if d.FwdDemux.Orphans() != 0 || d.RevDemux.Orphans() != 0 {
		t.Fatalf("misrouted packets: fwd %d, rev %d orphans",
			d.FwdDemux.Orphans(), d.RevDemux.Orphans())
	}
}

func TestTimeoutRecoversFromTailLoss(t *testing.T) {
	// A tiny transfer whose entire window fits in flight: if the last
	// segments are lost there are no dupacks, so only the RTO can
	// recover. Use a brutal 2-packet queue to force such losses.
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{
		BottleneckRate: simnet.Rate(1_000_000),
		QueueDuration:  25 * time.Millisecond, // ~2 segments at 1 Mb/s
	})
	done := 0
	for i := 0; i < 4; i++ {
		Start(s, uint64(i+1), d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{
			TotalBytes: 30_000,
			OnComplete: func() { done++ },
		})
	}
	s.Run(5 * time.Minute)
	if done != 4 {
		t.Fatalf("only %d/4 flows completed under severe loss", done)
	}
}
