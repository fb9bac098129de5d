package estimate

import (
	"testing"

	"badabing/internal/badabing"
)

// TestObservePathAllocFree pins the harvest-loop invariant the benchx
// gate also watches: the basic, improved and parametric estimators'
// Observe path performs zero heap allocations, windowed or not. (The
// bootstrap kind is exempt: it retains the outcome sequence for
// resampling, which grows a slice by design. Three-bit outcomes are also
// exempt: the triple-count map reallocates when a window bucket recycles.)
func TestObservePathAllocFree(t *testing.T) {
	for _, kind := range []string{KindBasic, KindImproved, KindParametric} {
		for _, windowSlots := range []int64{0, 512} {
			est, err := New(Config{Kind: kind}, badabing.StreamConfig{WindowSlots: windowSlots})
			if err != nil {
				t.Fatal(err)
			}
			var bits [2]bool
			slot := int64(0)
			allocs := testing.AllocsPerRun(5000, func() {
				slot += 3
				bits[0] = slot%7 == 0
				bits[1] = slot%11 == 0
				est.Observe(slot, bits[:])
			})
			if allocs != 0 {
				t.Errorf("kind=%s window=%d: %v allocs per Observe, want 0",
					kind, windowSlots, allocs)
			}
		}
	}
}
