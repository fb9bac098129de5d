package capture

import (
	"testing"
	"time"

	"badabing/internal/simnet"
	"badabing/internal/traffic"
)

// TestMonitorHighWaterMerging: two drop clusters 60 ms apart (beyond the
// 30 ms MaxGap) must still merge into one episode when the queue stays
// above the high-water mark throughout the gap — the paper's Harpoon
// delineation rule.
func TestMonitorHighWaterMerging(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{})
	// Phase 1: overload for 40 ms (fills and drops).
	overload(s, l, 0, 40*time.Millisecond, 1000)
	// Gap: send exactly at the drain rate so the queue holds near-full
	// for 60 ms without dropping.
	ival := l.Rate().TxTime(1000)
	for i := 0; i < int(60*time.Millisecond/ival); i++ {
		at := 40*time.Millisecond + time.Duration(i)*ival
		s.ScheduleAt(at, func() {
			l.Send(simnet.Packet{ID: s.NextPacketID(), Kind: simnet.Data, Size: 1000})
		})
	}
	// Phase 2: overload again.
	overload(s, l, 100*time.Millisecond, 40*time.Millisecond, 1000)
	s.Run(time.Second)
	if got := len(m.Episodes()); got != 1 {
		t.Fatalf("extracted %d episodes, want 1 (high-water merge)", got)
	}
}

func TestMonitorLowQueueGapSplits(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{})
	overload(s, l, 0, 40*time.Millisecond, 1000)
	// 100 ms of silence: the queue drains fully.
	overload(s, l, 140*time.Millisecond, 40*time.Millisecond, 1000)
	s.Run(time.Second)
	if got := len(m.Episodes()); got != 2 {
		t.Fatalf("extracted %d episodes, want 2 (drained gap splits)", got)
	}
}

func TestCongestedSlotsClampsToHorizon(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{})
	// Episode starting near the horizon edge.
	overload(s, l, 950*time.Millisecond, 200*time.Millisecond, 1000)
	s.Run(2 * time.Second)
	bits := m.CongestedSlots(time.Second, 5*time.Millisecond)
	if len(bits) != 200 {
		t.Fatalf("bitmap length %d, want 200", len(bits))
	}
	if !bits[len(bits)-1] {
		t.Error("episode at horizon edge not marked in final slot")
	}
}

func TestTruthZeroInputs(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{})
	s.Run(time.Second)
	if tr := m.Truth(0, 5*time.Millisecond); tr.Frequency != 0 {
		t.Error("zero horizon should yield empty truth")
	}
	if tr := m.Truth(time.Second, 0); tr.Frequency != 0 {
		t.Error("zero slot should yield empty truth")
	}
}

func TestEpisodeDurationAndDrops(t *testing.T) {
	e := Episode{Start: 100 * time.Millisecond, End: 180 * time.Millisecond, Drops: 7}
	if e.Duration() != 80*time.Millisecond {
		t.Fatalf("duration %v", e.Duration())
	}
}

func TestMonitorOpenEpisodeIncluded(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{})
	overload(s, l, 0, 40*time.Millisecond, 1000)
	// Query while the episode is the still-open current cluster.
	s.Run(20 * time.Millisecond)
	if len(m.Episodes()) != 1 {
		t.Fatal("open episode not reported")
	}
	// And reading must not corrupt subsequent accumulation.
	s.Run(time.Second)
	if len(m.Episodes()) != 1 {
		t.Fatal("episode double-counted after mid-run read")
	}
}

// TestSection3Observation reproduces §3's central point on a real
// scenario: during loss episodes the router drops packets, yet many
// individual flows come through without any loss at all — which is why a
// probe's own losses are a poor estimator of congestion.
func TestSection3Observation(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	m := Attach(s, d.Bottleneck, Config{})
	flows := &flowTap{arrivals: map[uint64]uint64{}, drops: map[uint64]uint64{}}
	d.Bottleneck.AddTap(flows)
	ids := traffic.NewIDSpace(1000)
	traffic.NewWeb(s, d, ids, traffic.WebConfig{Seed: 4})
	s.Run(90 * time.Second)
	truth := m.Truth(90*time.Second, 5*time.Millisecond)
	if truth.LossRate <= 0 {
		t.Skip("no loss this seed")
	}
	// Flows that sent at least 10 packets, and those of them that lost
	// none: the paper's §3 second, per-flow definition of loss rate.
	lossless, active := 0, 0
	for flow, arr := range flows.arrivals {
		if arr < 10 {
			continue
		}
		active++
		if flows.drops[flow] == 0 {
			lossless++
		}
	}
	if active < 50 {
		t.Fatalf("only %d active flows", active)
	}
	if lossless == 0 {
		t.Fatal("no lossless flows despite positive router-centric loss rate")
	}
	t.Logf("router loss rate %.4f; %d of %d flows lossless", truth.LossRate, lossless, active)
}

// flowTap counts each flow's arrivals and drops at a link.
type flowTap struct{ arrivals, drops map[uint64]uint64 }

func (f *flowTap) Arrive(_ time.Duration, p *simnet.Packet, _ int) { f.arrivals[p.Flow]++ }

func (f *flowTap) Depart(time.Duration, *simnet.Packet, int) {}

func (f *flowTap) Dropped(_ time.Duration, p *simnet.Packet, _ simnet.Drop) { f.drops[p.Flow]++ }
