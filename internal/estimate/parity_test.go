package estimate

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"badabing/internal/badabing"
	"badabing/internal/runner"
)

// fixture builds a deterministic marked run: a real improved-design
// schedule and a seeded congestion mark for every probe slot.
func fixture(t *testing.T) ([]badabing.Plan, map[int64]bool) {
	t.Helper()
	plans := badabing.MustSchedule(badabing.ScheduleConfig{
		P: 0.4, N: 5000, Improved: true, Seed: 7,
	})
	rng := rand.New(rand.NewSource(11))
	bySlot := make(map[int64]bool)
	for _, pl := range plans {
		for j := 0; j < pl.Probes; j++ {
			slot := pl.Slot + int64(j)
			if _, ok := bySlot[slot]; !ok {
				// Bursty marks so episodes span probes: a marked slot
				// makes the next one likelier to be marked too.
				p := 0.04
				if bySlot[slot-1] {
					p = 0.7
				}
				bySlot[slot] = rng.Float64() < p
			}
		}
	}
	return plans, bySlot
}

// configsUnderTest is the parity table: every registered kind, including
// a bootstrap variant with non-default tuning.
func configsUnderTest() []Config {
	cfgs := make([]Config, 0, len(Kinds())+1)
	for _, kind := range Kinds() {
		cfgs = append(cfgs, Config{Kind: kind})
	}
	cfgs = append(cfgs, Config{Kind: KindBootstrap, Resamples: 80, BlockLen: 20, Level: 0.9, Seed: 3})
	return cfgs
}

// TestBatchStreamParity: for every estimator kind, feeding outcomes one
// at a time through a live estimator — with snapshots interleaved mid-run,
// which must not perturb state — lands on a final snapshot
// Float64bits-identical to the batch entry point over the same marks.
func TestBatchStreamParity(t *testing.T) {
	plans, bySlot := fixture(t)
	sc := badabing.StreamConfig{WindowSlots: 1200}
	for _, cfg := range configsUnderTest() {
		t.Run(cfg.Kind, func(t *testing.T) {
			batchSnap, skipped, err := Batch(cfg, sc, plans, bySlot)
			if err != nil {
				t.Fatal(err)
			}
			if skipped != 0 {
				t.Fatalf("fixture skipped %d experiments, want 0", skipped)
			}

			est, err := New(cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			for i, pl := range plans {
				bits := make([]bool, 0, 3)
				for j := 0; j < pl.Probes; j++ {
					bits = append(bits, bySlot[pl.Slot+int64(j)])
				}
				est.Observe(pl.Slot, bits)
				if i%97 == 0 {
					est.Snapshot() // mid-run snapshots must be side-effect free
				}
			}
			streamSnap := est.Snapshot()

			assertSnapshotsIdentical(t, batchSnap, streamSnap)

			// Reset + replay is the session engine's end-of-run rebuild:
			// it must land on the same bits again.
			est.Reset()
			if est.M() != 0 {
				t.Fatalf("M after reset = %d, want 0", est.M())
			}
			badabing.Assemble(plans, bySlot, est.Observe)
			assertSnapshotsIdentical(t, batchSnap, est.Snapshot())
		})
	}
}

// assertSnapshotsIdentical compares two snapshots field-for-field at
// Float64bits strictness (the Has-flag convention keeps NaN out of the
// structs, so DeepEqual is exact for every non-float field too).
func assertSnapshotsIdentical(t *testing.T, want, got Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("snapshots differ:\nwant %+v\ngot  %+v", want, got)
	}
	for _, pair := range [][2]float64{
		{want.Total.Frequency, got.Total.Frequency},
		{want.Total.Duration, got.Total.Duration},
		{want.Window.Frequency, got.Window.Frequency},
		{want.Window.Duration, got.Window.Duration},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("Float64bits differ: %x vs %x", math.Float64bits(pair[0]), math.Float64bits(pair[1]))
		}
	}
	if (want.FrequencyCI == nil) != (got.FrequencyCI == nil) {
		t.Fatalf("frequency CI presence differs: %v vs %v", want.FrequencyCI, got.FrequencyCI)
	}
	if want.FrequencyCI != nil {
		if math.Float64bits(want.FrequencyCI.Lo) != math.Float64bits(got.FrequencyCI.Lo) ||
			math.Float64bits(want.FrequencyCI.Hi) != math.Float64bits(got.FrequencyCI.Hi) {
			t.Fatalf("frequency CI differs: %+v vs %+v", *want.FrequencyCI, *got.FrequencyCI)
		}
	}
}

// TestBatchParityAcrossWorkers: the per-kind batch computation fanned out
// on the shared experiment engine produces identical snapshots at 1 and 8
// workers — estimation must be deterministic under concurrency.
func TestBatchParityAcrossWorkers(t *testing.T) {
	plans, bySlot := fixture(t)
	sc := badabing.StreamConfig{WindowSlots: 1200}
	cfgs := configsUnderTest()

	runAll := func(workers int) []Snapshot {
		pool := runner.New(runner.Config{Workers: workers})
		cells := make([]runner.Cell, len(cfgs))
		for i, cfg := range cfgs {
			cfg := cfg
			cells[i] = runner.Cell{
				Key: "parity/" + cfg.Kind,
				Run: func(context.Context, int64) (any, error) {
					snap, _, err := Batch(cfg, sc, plans, bySlot)
					return snap, err
				},
			}
		}
		results, _, _ := pool.Run(context.Background(), cells)
		out := make([]Snapshot, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			out[i] = r.Value.(Snapshot)
		}
		return out
	}

	one, eight := runAll(1), runAll(8)
	for i := range cfgs {
		assertSnapshotsIdentical(t, one[i], eight[i])
	}
}

// TestNewRejectsBadConfigs: the registry's validation catches what the
// fleet must answer 400 to.
func TestNewRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Kind: "fourier"},
		{Kind: "bootstrap", Resamples: -1},
		{Kind: "bootstrap", Resamples: 1 << 30},
		{Kind: "bootstrap", BlockLen: -5},
		{Kind: "bootstrap", Level: 1.5},
		{Kind: "bootstrap", Level: -0.1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, badabing.StreamConfig{}); err == nil {
			t.Errorf("New(%+v) accepted, want error", cfg)
		}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted, want error", cfg)
		}
	}
	for _, kind := range append(Kinds(), "") {
		if _, err := New(Config{Kind: kind}, badabing.StreamConfig{}); err != nil {
			t.Errorf("New(kind=%q): %v", kind, err)
		}
	}
}

// TestNormalize: case folding, defaulting and the error listing valid
// kinds.
func TestNormalize(t *testing.T) {
	if k, err := Normalize(""); err != nil || k != DefaultKind {
		t.Fatalf("Normalize(\"\") = %q, %v", k, err)
	}
	if k, err := Normalize("BOOTSTRAP"); err != nil || k != KindBootstrap {
		t.Fatalf("Normalize(BOOTSTRAP) = %q, %v", k, err)
	}
	if _, err := Normalize("nope"); err == nil {
		t.Fatal("Normalize(nope) accepted")
	}
}
