package traffic

import (
	"testing"
	"time"

	"badabing/internal/capture"
	"badabing/internal/simnet"
)

func TestCBRRateAndSpacing(t *testing.T) {
	s := simnet.New()
	var times []time.Duration
	sink := simnet.ReceiverFunc(func(p simnet.Packet) { times = append(times, s.Now()) })
	l := simnet.NewLink(s, simnet.GigE, 0, 10_000_000, sink)
	NewCBR(s, l, 1, simnet.Rate(12_000_000), 1500) // 1000 pps
	s.Run(time.Second)
	if got := len(times); got < 995 || got > 1005 {
		t.Fatalf("delivered %d packets in 1s, want ≈1000", got)
	}
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < 900*time.Microsecond || gap > 1100*time.Microsecond {
			t.Fatalf("packet gap %v at %d, want ≈1ms", gap, i)
		}
	}
}

func TestEpisodeInjectorUniformDurations(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	ids := NewIDSpace(1000)
	mon := capture.Attach(s, d.Bottleneck, capture.Config{})
	inj := NewEpisodeInjector(s, d, ids, EpisodeInjectorConfig{
		Durations:   []time.Duration{68 * time.Millisecond},
		MeanSpacing: 10 * time.Second,
	})
	const horizon = 180 * time.Second
	s.Run(horizon)
	eps := mon.Episodes()
	if len(eps) < 8 || len(eps) > 35 {
		t.Fatalf("got %d episodes in 180s with 10s mean spacing, want ≈18", len(eps))
	}
	if inj.episodes != len(eps) {
		t.Errorf("injector bursts %d != extracted episodes %d", inj.episodes, len(eps))
	}
	truth := mon.Truth(horizon, 5*time.Millisecond)
	mean := truth.Duration.MeanDuration()
	if mean < 50*time.Millisecond || mean > 90*time.Millisecond {
		t.Errorf("mean episode duration %v, want ≈68ms", mean)
	}
	// σ should be small: durations are engineered constant.
	if sd := truth.Duration.StdDevDuration(); sd > 20*time.Millisecond {
		t.Errorf("duration σ = %v, want small (constant-duration episodes)", sd)
	}
}

func TestEpisodeInjectorMixedDurations(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	ids := NewIDSpace(1000)
	mon := capture.Attach(s, d.Bottleneck, capture.Config{})
	NewEpisodeInjector(s, d, ids, EpisodeInjectorConfig{
		Durations:   []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond},
		MeanSpacing: 8 * time.Second,
		Seed:        3,
	})
	const horizon = 240 * time.Second
	s.Run(horizon)
	truth := mon.Truth(horizon, 5*time.Millisecond)
	if truth.Episodes < 10 {
		t.Fatalf("only %d episodes", truth.Episodes)
	}
	mean := truth.Duration.MeanDuration()
	// Expect near the 100 ms average of {50,100,150}.
	if mean < 60*time.Millisecond || mean > 140*time.Millisecond {
		t.Errorf("mean duration %v, want ≈100ms", mean)
	}
	// Mixed durations: σ must be clearly positive.
	if sd := truth.Duration.StdDevDuration(); sd < 15*time.Millisecond {
		t.Errorf("duration σ = %v, want ≥15ms for mixed durations", sd)
	}
}

func TestInfiniteTCPCreatesPeriodicEpisodes(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	ids := NewIDSpace(0)
	mon := capture.Attach(s, d.Bottleneck, capture.Config{})
	NewInfiniteTCP(s, d, ids, 40)
	const horizon = 120 * time.Second
	s.Run(horizon)
	truth := mon.Truth(horizon, 5*time.Millisecond)
	if truth.Episodes < 5 {
		t.Fatalf("only %d episodes from 40 synchronized TCP sources in 120s", truth.Episodes)
	}
	mean := truth.Duration.MeanDuration()
	// Paper observed ≈136-150 ms episodes; accept a broad band around
	// the RTT scale.
	if mean < 20*time.Millisecond || mean > 600*time.Millisecond {
		t.Errorf("mean episode duration %v, want O(RTT)", mean)
	}
	if truth.Frequency <= 0 || truth.Frequency > 0.3 {
		t.Errorf("frequency %v out of plausible range", truth.Frequency)
	}
}

func TestWebWorkloadGeneratesLoadAndEpisodes(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	ids := NewIDSpace(0)
	mon := capture.Attach(s, d.Bottleneck, capture.Config{})
	w := NewWeb(s, d, ids, WebConfig{Seed: 5})
	const horizon = 120 * time.Second
	s.Run(horizon)
	if w.sessions == 0 || w.transfers == 0 {
		t.Fatalf("no web activity: %d sessions, %d transfers", w.sessions, w.transfers)
	}
	truth := mon.Truth(horizon, 5*time.Millisecond)
	if truth.Episodes < 2 {
		t.Fatalf("web workload produced %d loss episodes in 120s, want several (surges ≈ every 20s)",
			truth.Episodes)
	}
	if truth.LossRate <= 0 {
		t.Error("no packet loss under web workload")
	}
}

func TestIDSpaceUnique(t *testing.T) {
	ids := NewIDSpace(100)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := ids.Next()
		if id <= 100 {
			t.Fatalf("id %d not above base", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}
