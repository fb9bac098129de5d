package badabing

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// mkObs builds an observation at time t (ms) with the given OWD (ms).
func mkObs(slot int64, tMillis, owdMillis int, lost int) ProbeObs {
	return ProbeObs{
		Slot:        slot,
		SentPackets: 3,
		LostPackets: lost,
		OWD:         ms(owdMillis),
		T:           ms(tMillis),
	}
}

func TestMarkLossAlwaysCongested(t *testing.T) {
	obs := []ProbeObs{
		mkObs(0, 0, 150, 1),
		mkObs(1, 5, 50, 0),
	}
	got := Mark(obs, MarkerConfig{Alpha: 0.1, Tau: ms(10)})
	if !got[0] {
		t.Error("lossy probe not marked congested")
	}
}

func TestMarkHighDelayNearLoss(t *testing.T) {
	// Baseline OWD 50 ms; loss at t=100 with OWD 150 ms (queue 100 ms).
	// A probe at t=110 with OWD 145 ms (queue 95 ms > 0.9×100) must be
	// congested; a probe at t=500 with the same delay must not (too far
	// from the loss); a probe at t=105 with low delay must not.
	obs := []ProbeObs{
		mkObs(0, 0, 50, 0),      // baseline
		mkObs(20, 100, 150, 1),  // loss
		mkObs(22, 110, 145, 0),  // high delay, near loss → congested
		mkObs(24, 120, 60, 0),   // low delay, near loss → clean
		mkObs(100, 500, 145, 0), // high delay, far from loss → clean
	}
	got := Mark(obs, MarkerConfig{Alpha: 0.1, Tau: ms(40)})
	want := []bool{false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("obs %d marked %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMarkBeforeLossWithinTau(t *testing.T) {
	// Probes *preceding* a loss by less than τ also qualify (the queue
	// was already full while it was filling).
	obs := []ProbeObs{
		mkObs(0, 0, 50, 0),
		mkObs(18, 90, 148, 0),  // 10 ms before the loss, queue nearly full
		mkObs(20, 100, 150, 1), // loss
	}
	got := Mark(obs, MarkerConfig{Alpha: 0.1, Tau: ms(40)})
	if !got[1] {
		t.Error("high-delay probe just before a loss not marked congested")
	}
}

func TestMarkNoLossesNoDelayMarking(t *testing.T) {
	// Without any loss, OWDmax is unknown: only losses mark congestion.
	obs := []ProbeObs{
		mkObs(0, 0, 50, 0),
		mkObs(1, 5, 500, 0), // large delay but no loss anywhere
	}
	got := Mark(obs, MarkerConfig{Alpha: 0.1, Tau: ms(40)})
	if got[0] || got[1] {
		t.Error("probes marked congested without any loss evidence")
	}
}

func TestMarkAlphaSensitivity(t *testing.T) {
	// Queue max 100 ms. A probe at 85 ms of queueing near a loss: with
	// α=0.20 the threshold is 80 ms (congested); with α=0.05 it is
	// 95 ms (clean). This is the mechanism behind Figure 9a.
	obs := []ProbeObs{
		mkObs(0, 0, 50, 0),
		mkObs(20, 100, 150, 1),
		mkObs(22, 110, 135, 0), // 85 ms of queueing
	}
	loose := Mark(obs, MarkerConfig{Alpha: 0.20, Tau: ms(40)})
	tight := Mark(obs, MarkerConfig{Alpha: 0.05, Tau: ms(40)})
	if !loose[2] {
		t.Error("α=0.20 should mark the 85ms-queue probe congested")
	}
	if tight[2] {
		t.Error("α=0.05 should not mark the 85ms-queue probe congested")
	}
}

func TestMarkTauSensitivity(t *testing.T) {
	// Same probe, 60 ms from the loss: τ=80 marks it, τ=20 does not.
	// This is the mechanism behind Figure 9b.
	obs := []ProbeObs{
		mkObs(0, 0, 50, 0),
		mkObs(20, 100, 150, 1),
		mkObs(32, 160, 148, 0),
	}
	wide := Mark(obs, MarkerConfig{Alpha: 0.1, Tau: ms(80)})
	narrow := Mark(obs, MarkerConfig{Alpha: 0.1, Tau: ms(20)})
	if !wide[2] {
		t.Error("τ=80ms should mark the probe congested")
	}
	if narrow[2] {
		t.Error("τ=20ms should not mark the probe congested")
	}
}

func TestMarkOWDMaxAveraging(t *testing.T) {
	// Two losses with different delays: OWDmax is their mean queue
	// depth. Losses at 150 ms and 130 ms over a 50 ms baseline give
	// OWDmax = 90 ms; threshold at α=0.1 is 81 ms.
	obs := []ProbeObs{
		mkObs(0, 0, 50, 0),
		mkObs(20, 100, 150, 1),
		mkObs(40, 200, 130, 1),
		mkObs(42, 210, 135, 0), // 85 ms queue ≥ 81 → congested
		mkObs(44, 220, 128, 0), // 78 ms queue < 81 → clean
	}
	got := Mark(obs, MarkerConfig{Alpha: 0.1, Tau: ms(40)})
	if !got[3] {
		t.Error("probe above averaged threshold not marked")
	}
	if got[4] {
		t.Error("probe below averaged threshold marked")
	}
}

func TestMarkEmpty(t *testing.T) {
	if got := Mark(nil, MarkerConfig{}); len(got) != 0 {
		t.Fatal("non-empty result for empty input")
	}
}
