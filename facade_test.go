package badabing_test

import (
	"testing"
	"time"

	"badabing"
)

// TestPublicAPIRoundTrip exercises the documented downstream workflow
// through the facade package only: schedule, mark, assemble, estimate.
func TestPublicAPIRoundTrip(t *testing.T) {
	plans := badabing.MustSchedule(badabing.ScheduleConfig{P: 0.5, N: 1000, Seed: 1})
	if len(plans) == 0 {
		t.Fatal("empty schedule")
	}

	// Synthesize observations: congestion in slots 100..119 (20 slots
	// = 100 ms at the default 5 ms slot width).
	congested := func(slot int64) bool { return slot >= 100 && slot < 120 }
	var obs []badabing.ProbeObs
	seen := map[int64]bool{}
	for _, pl := range plans {
		for j := 0; j < pl.Probes; j++ {
			s := pl.Slot + int64(j)
			if seen[s] {
				continue
			}
			seen[s] = true
			o := badabing.ProbeObs{
				Slot:        s,
				SentPackets: 3,
				T:           time.Duration(s) * badabing.DefaultSlot,
				OWD:         50 * time.Millisecond,
			}
			if congested(s) {
				o.LostPackets = 1
				o.OWD = 150 * time.Millisecond
			}
			obs = append(obs, o)
		}
	}
	marked := badabing.Mark(obs, badabing.RecommendedMarker(0.5, badabing.DefaultSlot))
	bySlot := map[int64]bool{}
	for i, o := range obs {
		bySlot[o.Slot] = bySlot[o.Slot] || marked[i]
	}
	acc := &badabing.Accumulator{}
	skipped := badabing.Assemble(plans, bySlot, func(_ int64, bits []bool) { acc.Add(bits) })
	if skipped != 0 {
		t.Fatalf("skipped %d experiments with full observations", skipped)
	}
	rep := badabing.EstimatesOf(acc)
	// True frequency is 20/1000 = 0.02.
	if rep.Frequency < 0.01 || rep.Frequency > 0.04 {
		t.Errorf("frequency %.4f, want ≈0.02", rep.Frequency)
	}
	if !rep.HasDuration {
		t.Fatal("no duration estimate")
	}
	// One 100 ms episode.
	if rep.Duration < 0.05 || rep.Duration > 0.2 {
		t.Errorf("duration %.3fs, want ≈0.1s", rep.Duration)
	}
}

func TestPublicMonitor(t *testing.T) {
	mon := badabing.MonitorConfig{MinExperiments: 10}
	acc := &badabing.Accumulator{}
	for i := 0; i < 9; i++ {
		acc.AddBasic(false, false)
	}
	if mon.Converged(badabing.EstimatesOf(acc)) {
		t.Fatal("converged below MinExperiments")
	}
}
