package badabing_test

import (
	"fmt"
	"time"

	badabing "badabing/internal/badabing"
)

// The full measurement pipeline on synthetic observations: schedule →
// mark → assemble → report.
func Example() {
	// Draw the probe schedule: 50 000 slots of 5 ms (250 s), p = 0.5.
	plans := badabing.MustSchedule(badabing.ScheduleConfig{P: 0.5, N: 50000, Seed: 7})

	// Pretend the path had a 200 ms loss episode (40 slots) every
	// 1000 slots (5 s), and synthesize per-probe observations.
	congested := func(slot int64) bool { return slot%1000 >= 300 && slot%1000 < 340 }
	var obs []badabing.ProbeObs
	seen := map[int64]bool{}
	for _, pl := range plans {
		for j := 0; j < pl.Probes; j++ {
			slot := pl.Slot + int64(j)
			if seen[slot] {
				continue
			}
			seen[slot] = true
			o := badabing.ProbeObs{
				Slot:        slot,
				SentPackets: 3,
				T:           time.Duration(slot) * badabing.DefaultSlot,
				OWD:         50 * time.Millisecond,
			}
			if congested(slot) {
				o.LostPackets = 1
				o.OWD = 150 * time.Millisecond
			}
			obs = append(obs, o)
		}
	}

	// Mark congestion, assemble experiment outcomes, estimate.
	marked := badabing.Mark(obs, badabing.RecommendedMarker(0.5, badabing.DefaultSlot))
	bySlot := map[int64]bool{}
	for i, o := range obs {
		bySlot[o.Slot] = bySlot[o.Slot] || marked[i]
	}
	acc := &badabing.Accumulator{}
	badabing.Assemble(plans, bySlot, func(_ int64, bits []bool) { acc.Add(bits) })
	est := badabing.EstimatesOf(acc)

	// True frequency is 40/1000 = 0.04 and true duration 200 ms.
	fmt.Printf("frequency %.3f\n", est.Frequency)
	d, _ := acc.Duration()
	fmt.Printf("duration %v\n", d)
	// Output:
	// frequency 0.038
	// duration 187.399999ms
}

// Validation flags a process whose episodes flap at the slot scale.
func ExampleValidation() {
	acc := &badabing.Accumulator{}
	for i := 0; i < 30; i++ {
		acc.AddExtended(false, true, false) // 010: single-slot episodes
	}
	v := acc.Validate()
	fmt.Printf("violations: %d, passes: %v\n", v.Violations, v.Passes(badabing.Criteria{}))
	// Output:
	// violations: 30, passes: false
}
