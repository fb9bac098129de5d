package capture

import (
	"testing"
	"time"

	"badabing/internal/simnet"
)

// sink discards packets.
type sink struct{}

func (sink) Deliver(simnet.Packet) {}

// overload sends a burst into link at twice its drain rate for dur.
func overload(s *simnet.Sim, l *simnet.Link, at, dur time.Duration, size int) {
	ival := l.Rate().TxTime(size) / 2
	n := int(dur / ival)
	for i := 0; i < n; i++ {
		t := at + time.Duration(i)*ival
		s.ScheduleAt(t, func() {
			l.Send(simnet.Packet{ID: s.NextPacketID(), Kind: simnet.Data, Size: size, Sent: s.Now()})
		})
	}
}

func TestMonitorSingleEpisode(t *testing.T) {
	s := simnet.New()
	// 8 Mb/s link, 10 ms buffer (10 kB → 10 packets of 1000 B).
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{})
	// 2x overload for 100 ms: fills the 10 ms buffer in ~10 ms, then
	// drops for ~90 ms.
	overload(s, l, 0, 100*time.Millisecond, 1000)
	s.Run(time.Second)
	eps := m.Episodes()
	if len(eps) != 1 {
		t.Fatalf("extracted %d episodes, want 1: %+v", len(eps), eps)
	}
	d := eps[0].Duration()
	if d < 70*time.Millisecond || d > 95*time.Millisecond {
		t.Errorf("episode duration %v, want ≈90ms", d)
	}
	if eps[0].Drops == 0 {
		t.Error("episode has no drops")
	}
}

func TestMonitorSeparatesDistantEpisodes(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{})
	overload(s, l, 0, 60*time.Millisecond, 1000)
	overload(s, l, 2*time.Second, 60*time.Millisecond, 1000)
	s.Run(5 * time.Second)
	if got := len(m.Episodes()); got != 2 {
		t.Fatalf("extracted %d episodes, want 2", got)
	}
}

func TestMonitorMergesNearbyDrops(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{})
	// Two bursts 20 ms apart (< MaxGap): one episode.
	overload(s, l, 0, 40*time.Millisecond, 1000)
	overload(s, l, 60*time.Millisecond, 40*time.Millisecond, 1000)
	s.Run(time.Second)
	if got := len(m.Episodes()); got != 1 {
		t.Fatalf("extracted %d episodes, want 1 (merged)", got)
	}
}

func TestMonitorCountsByKind(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 2000, sink{})
	m := Attach(s, l, Config{})
	s.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			l.Send(simnet.Packet{ID: s.NextPacketID(), Kind: simnet.Data, Size: 1000})
		}
		l.Send(simnet.Packet{ID: s.NextPacketID(), Kind: simnet.Probe, Size: 1000})
	})
	s.Run(time.Second)
	arrivals, drops := m.Tally()
	if arrivals != 5 || drops != 3 {
		t.Fatalf("tally = %d arrivals, %d drops; want 5, 3", arrivals, drops)
	}
	if tr := m.Truth(time.Second, 5*time.Millisecond); tr.LossRate != 0.6 {
		t.Fatalf("loss rate %v, want 3/5", tr.LossRate)
	}
}

func TestTruthFrequencyAndDuration(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{})
	// Three ~90 ms episodes in 30 s: F ≈ 3*0.09/30 = 0.009.
	for i := 0; i < 3; i++ {
		overload(s, l, time.Duration(i)*10*time.Second, 100*time.Millisecond, 1000)
	}
	s.Run(30 * time.Second)
	truth := m.Truth(30*time.Second, 5*time.Millisecond)
	if truth.Episodes != 3 {
		t.Fatalf("episodes = %d, want 3", truth.Episodes)
	}
	if truth.Frequency < 0.006 || truth.Frequency > 0.012 {
		t.Errorf("frequency = %v, want ≈0.009", truth.Frequency)
	}
	mean := truth.Duration.MeanDuration()
	if mean < 70*time.Millisecond || mean > 95*time.Millisecond {
		t.Errorf("mean duration = %v, want ≈90ms", mean)
	}
	if truth.LossRate <= 0 {
		t.Error("loss rate should be positive")
	}
	if truth.EpisodeRate < 0.05 || truth.EpisodeRate > 0.2 {
		t.Errorf("episode rate = %v, want 0.1/s", truth.EpisodeRate)
	}
}

func TestCongestedSlotsMatchesEpisodes(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{})
	overload(s, l, time.Second, 100*time.Millisecond, 1000)
	s.Run(3 * time.Second)
	slot := 5 * time.Millisecond
	bits := m.CongestedSlots(3*time.Second, slot)
	eps := m.Episodes()
	if len(eps) != 1 {
		t.Fatalf("want 1 episode, got %d", len(eps))
	}
	congested := 0
	for _, b := range bits {
		if b {
			congested++
		}
	}
	wantSlots := int(eps[0].Duration()/slot) + 1
	if congested < wantSlots-1 || congested > wantSlots+1 {
		t.Errorf("congested slots = %d, want ≈%d", congested, wantSlots)
	}
	// No congested slot outside the episode's span.
	for i, b := range bits {
		tm := time.Duration(i) * slot
		if b && (tm+slot < eps[0].Start || tm > eps[0].End+slot) {
			t.Fatalf("slot %d (%v) marked congested outside episode [%v,%v]",
				i, tm, eps[0].Start, eps[0].End)
		}
	}
}

func TestQueueSampling(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{Horizon: 100 * time.Millisecond})
	overload(s, l, 0, 50*time.Millisecond, 1000)
	s.Run(200 * time.Millisecond)
	samples := m.Samples()
	if len(samples) < 95 || len(samples) > 105 {
		t.Fatalf("got %d samples, want ≈100", len(samples))
	}
	var peak time.Duration
	for _, q := range samples {
		if q.Delay > peak {
			peak = q.Delay
		}
	}
	// Buffer is 10 ms deep; during overload it should be near-full.
	if peak < 8*time.Millisecond {
		t.Errorf("peak sampled queue delay %v, want ≈10ms", peak)
	}
}

func TestTruthEmptyWindow(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.Rate(8_000_000), 0, 10_000, sink{})
	m := Attach(s, l, Config{})
	s.Run(time.Second)
	truth := m.Truth(time.Second, 5*time.Millisecond)
	if truth.Frequency != 0 || truth.Episodes != 0 || truth.Duration.N() != 0 {
		t.Fatalf("truth on idle link not empty: %+v", truth)
	}
}
