package badabing

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// driveAdaptive runs the controller against a synthetic series, laying
// each round's slots consecutively.
func driveAdaptive(t *testing.T, a *Adaptive, series []bool) {
	t.Helper()
	base := int64(0)
	seed := int64(100)
	for !a.Done() {
		plans, _ := a.NextRound(seed)
		seed++
		for _, pl := range plans {
			if base+pl.Slot+int64(pl.Probes) > int64(len(series)) {
				t.Fatal("series exhausted")
			}
			bits := make([]bool, pl.Probes)
			for j := range bits {
				bits[j] = series[base+pl.Slot+int64(j)]
			}
			a.acc.Add(bits)
		}
		base += 6000
		a.EndRound()
	}
}

func TestAdaptiveConvergesOnLossyPath(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	series, _, _ := synthSeries(rng, 400_000, 400, 14)
	a := newAdaptive(t, AdaptiveConfig{
		Monitor: MonitorConfig{MinExperiments: 500},
	})
	driveAdaptive(t, a, series)
	if !a.Converged() {
		t.Fatalf("did not converge in %d rounds", a.Round())
	}
	est := a.Estimates()
	if !est.HasDuration || est.Frequency <= 0 {
		t.Fatalf("converged without usable estimates: %+v", est)
	}
}

func TestAdaptiveEscalatesOnQuietPath(t *testing.T) {
	// Episodes so rare that low-p rounds see almost no boundaries: the
	// controller must raise p.
	rng := rand.New(rand.NewSource(72))
	series, _, _ := synthSeries(rng, 400_000, 20_000, 14)
	a := newAdaptive(t, AdaptiveConfig{
		MaxRounds: 20,
		Monitor:   MonitorConfig{MinExperiments: 500},
	})
	start := a.P()
	driveAdaptive(t, a, series)
	if a.P() <= start {
		t.Fatalf("p never escalated from %v on a quiet path", start)
	}
}

func TestAdaptiveStaysGentleWhenEvidenceFlows(t *testing.T) {
	// Frequent episodes: boundary evidence arrives fast at p=0.1, so
	// escalation should be mild or absent before convergence.
	rng := rand.New(rand.NewSource(73))
	series, _, _ := synthSeries(rng, 800_000, 150, 14)
	a := newAdaptive(t, AdaptiveConfig{
		Monitor: MonitorConfig{MinExperiments: 300},
	})
	driveAdaptive(t, a, series)
	if !a.Converged() {
		t.Fatal("did not converge")
	}
	if a.P() > 0.4 {
		t.Errorf("p escalated to %v despite abundant evidence", a.P())
	}
}

func TestAdaptiveRespectsRoundBudget(t *testing.T) {
	// All-clear path: can never converge (no boundaries), must stop at
	// MaxRounds with p pinned at PMax.
	series := make([]bool, 200_000)
	a := newAdaptive(t, AdaptiveConfig{
		MaxRounds: 5,
		Monitor:   MonitorConfig{MinExperiments: 100},
	})
	driveAdaptive(t, a, series)
	if a.Converged() {
		t.Fatal("converged on a lossless path")
	}
	if a.Round() != 5 {
		t.Fatalf("ran %d rounds, want 5", a.Round())
	}
	if a.P() != 0.9 {
		t.Fatalf("p = %v after persistent silence, want PMax 0.9", a.P())
	}
}

// TestAdaptiveRejectsInvalidConfig: configurations the controller cannot
// run are errors, not panics — they arrive from command-line flags.
func TestAdaptiveRejectsInvalidConfig(t *testing.T) {
	nan := math.NaN()
	for _, cfg := range []AdaptiveConfig{
		{PMin: 0.8, PMax: 0.2},
		{PMin: 0.95}, // above the default PMax 0.9
		{PMin: -0.1},
		{PMax: 1.5},
		{PMin: nan},
		{Escalation: 0.5},
		{Escalation: -2},
		{RoundSlots: -1},
		{MaxRounds: -3},
		{Slot: -time.Millisecond},
	} {
		if a, err := NewAdaptive(cfg); err == nil {
			t.Errorf("NewAdaptive(%+v) = %p, want an error", cfg, a)
		}
	}
}

// TestAdaptiveEstimatesAtConfiguredSlot: one slot width converts both
// the round pacing and the estimates — at 10 ms slots, D̂ and the §7
// bound come out in 10 ms units.
func TestAdaptiveEstimatesAtConfiguredSlot(t *testing.T) {
	a := newAdaptive(t, AdaptiveConfig{Slot: 10 * time.Millisecond, MaxRounds: 1})
	var round Accumulator
	for i := 0; i < 20; i++ {
		round.AddBasic(true, true)
		round.AddBasic(true, false)
		round.AddBasic(false, true)
	}
	a.MergeRound(round.Counts())
	slots, _ := round.DurationSlots()
	sd, _ := round.DurationStdDev()
	est := a.Estimates()
	if !est.HasDurationBasic || est.DurationBasic != slots*0.010 {
		t.Errorf("D̂ = %vs, want %v slots × 10 ms", est.DurationBasic, slots)
	}
	if !est.HasStdDev || est.StdDev != sd*0.010 {
		t.Errorf("σ = %vs, want %v slots × 10 ms", est.StdDev, sd)
	}
}

func newAdaptive(t *testing.T, cfg AdaptiveConfig) *Adaptive {
	t.Helper()
	a, err := NewAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
