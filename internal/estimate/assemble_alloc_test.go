//go:build !race

package estimate

import (
	"testing"

	"badabing/internal/badabing"
)

// TestAssembleFeedAllocs pins the shared assembly loop's cost: feeding an
// improved estimator a whole schedule through badabing.Assemble
// allocates at most once per call (its scratch buffer), however many
// experiments the schedule holds — never once per experiment, as the
// loops it replaced did.
func TestAssembleFeedAllocs(t *testing.T) {
	for _, n := range []int64{1_000, 20_000} {
		plans := badabing.MustSchedule(badabing.ScheduleConfig{P: 0.5, N: n, Improved: true, Seed: 3})
		bySlot := make(map[int64]bool)
		for _, slot := range badabing.ProbeSlots(plans) {
			bySlot[slot] = slot%13 < 2
		}
		est, err := New(Config{Kind: KindImproved}, badabing.StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			badabing.Assemble(plans, bySlot, est.Observe)
		})
		if allocs > 1 {
			t.Errorf("%d experiments: %v allocs per Assemble call, want at most 1", len(plans), allocs)
		}
	}
}
