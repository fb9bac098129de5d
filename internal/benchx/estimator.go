package benchx

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
)

// EstimatorBench is the observe-path cost of one estimator kind: how
// many nanoseconds one streamed experiment outcome costs, and how many
// heap allocations it performs. That the basic, improved and parametric
// kinds observe with zero allocations is pinned by
// TestObservePathAllocFree in internal/estimate; here the count is only
// reported.
type EstimatorBench struct {
	Kind             string
	Observes         int
	NsPerObserve     float64
	AllocsPerObserve float64
}

// estimatorWindowSlots sizes the benchmark streams' sliding window so the
// observe path exercises the bucket ring, not just the total accumulator.
const estimatorWindowSlots = 4096

// estimatorObserves sizes the timing loop per kind.
func estimatorObserves(opts Options) int {
	if opts.Short {
		return 50_000
	}
	return 200_000
}

// RunEstimatorBench measures the streaming observe path of every
// registered estimator kind over one deterministic seeded outcome
// sequence (basic two-bit outcomes at p≈0.3 loss marks, slots advancing
// like a real schedule).
func RunEstimatorBench(opts Options) ([]EstimatorBench, error) {
	opts.applyDefaults()
	n := estimatorObserves(opts)
	out := make([]EstimatorBench, 0, len(estimate.Kinds()))
	for _, kind := range estimate.Kinds() {
		eb, err := runEstimatorKindBench(kind, opts.Seed, n)
		if err != nil {
			return nil, err
		}
		out = append(out, eb)
	}
	return out, nil
}

func runEstimatorKindBench(kind string, seed int64, n int) (EstimatorBench, error) {
	eb := EstimatorBench{Kind: kind, Observes: n}
	newEst := func() (*estimate.Estimator, error) {
		return estimate.New(estimate.Config{Kind: kind}, badabing.StreamConfig{
			WindowSlots: estimatorWindowSlots,
		})
	}

	// Pre-draw the outcome sequence so the timed loop measures Observe
	// alone, not the RNG.
	rng := rand.New(rand.NewSource(seed))
	slots := make([]int64, n)
	bits := make([][2]bool, n)
	slot := int64(0)
	for i := range slots {
		slot += 1 + int64(rng.Intn(5))
		slots[i] = slot
		bits[i] = [2]bool{rng.Float64() < 0.05, rng.Float64() < 0.05}
	}

	est, err := newEst()
	if err != nil {
		return eb, err
	}
	var scratch [2]bool
	start := time.Now()
	for i := 0; i < n; i++ {
		scratch = bits[i]
		est.Observe(slots[i], scratch[:])
	}
	eb.NsPerObserve = float64(time.Since(start).Nanoseconds()) / float64(n)
	if est.M() != n {
		return eb, fmt.Errorf("benchx: estimator %s observed %d of %d outcomes", kind, est.M(), n)
	}

	// Allocation pin: the same observe path under the runtime's
	// allocation counter. testing.AllocsPerRun is usable outside tests.
	est2, err := newEst()
	if err != nil {
		return eb, err
	}
	i := 0
	eb.AllocsPerObserve = testing.AllocsPerRun(min(n, 10_000), func() {
		scratch = bits[i%n]
		est2.Observe(slots[i%n], scratch[:])
		i++
	})
	return eb, nil
}
