//go:build !race

package session

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/probe"
	"badabing/internal/session/simtransport"
	"badabing/internal/simnet"
)

// TestHarvestStepAllocs pins a mid-run harvest step's allocations: they
// must not grow with the session, so a step in the middle of a 40 000-slot
// session allocates exactly as often as one in a 2 000-slot session. The
// count is process-wide, and an allocation elsewhere in the process can
// only add to it, so each length is measured over five consecutive steps
// and their minima are compared.
func TestHarvestStepAllocs(t *testing.T) {
	short, long := midRunStepAllocs(t, 2_000), midRunStepAllocs(t, 40_000)
	t.Logf("mid-run step allocations: %v at 2 000 slots, %v at 40 000", short, long)
	if a, b := slices.Min(short), slices.Min(long); a != b {
		t.Errorf("a mid-run step allocates %d times at 2 000 slots but %d at 40 000 (fewest of five steps each)", a, b)
	}
}

// midRunStepAllocs harvests a windowed idle-path session step by step to
// its middle and counts the allocations of each of the next five steps
// alone.
func midRunStepAllocs(t *testing.T, slots int64) []uint64 {
	ctx := context.Background()
	cfg := Config{P: 0.3, Slots: slots, Improved: true, Seed: 5, StepSlots: 200, WindowSlots: max(slots/4, 1000)}
	cfg.applyDefaults()
	plans, err := badabing.Schedule(cfg.scheduleConfig())
	if err != nil {
		t.Fatal(err)
	}
	probes := badabing.ProbeSlots(plans)
	est, err := estimate.New(cfg.Estimator, cfg.stream())
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.New()
	tr := simtransport.New(sim, simnet.NewDumbbell(sim, simnet.DumbbellConfig{}), 7, probe.BadabingConfig{Slot: cfg.Slot})
	if err := tr.Launch(ctx, probes); err != nil {
		t.Fatal(err)
	}
	h := newHarvester(&cfg, plans, len(probes), est, nil)
	step := time.Duration(cfg.StepSlots) * cfg.Slot
	now := step
	for ; now < time.Duration(slots/2)*cfg.Slot; now += step {
		if err := tr.AdvanceTo(ctx, now); err != nil {
			t.Fatal(err)
		}
		h.harvest(tr, now, midRun)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	counts := make([]uint64, 5)
	for i := range counts {
		if err := tr.AdvanceTo(ctx, now); err != nil {
			t.Fatal(err)
		}
		fed := h.fed
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.harvest(tr, now, midRun)
		runtime.ReadMemStats(&after)
		if h.fed == fed {
			t.Fatalf("%d-slot session: measured step %d fed no experiment", slots, i)
		}
		counts[i] = after.Mallocs - before.Mallocs
		now += step
	}
	return counts
}
