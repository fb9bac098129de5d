package badabing

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: the frequency estimator is always a valid proportion and the
// outcome counts partition the experiments.
func TestAccumulatorInvariantsProperty(t *testing.T) {
	f := func(outcomes []uint8) bool {
		acc := &Accumulator{}
		basic := 0
		for _, o := range outcomes {
			if o%2 == 0 {
				acc.AddBasic(o&4 != 0, o&2 != 0)
				basic++
			} else {
				acc.AddExtended(o&4 != 0, o&2 != 0, o&8 != 0)
			}
		}
		if acc.M() != len(outcomes) {
			return false
		}
		fr := acc.Frequency()
		if fr < 0 || fr > 1 {
			return false
		}
		r, s := acc.RS()
		if s > r || r < 0 {
			return false
		}
		if acc.c00+acc.c01+acc.c10+acc.c11 != basic {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the duration estimator, when defined, is at least
// 2(1-1)+1 = 1 slot when R == S and grows with R.
func TestDurationMonotoneInR(t *testing.T) {
	acc := &Accumulator{}
	acc.AddBasic(false, true)
	acc.AddBasic(true, false)
	d1, ok := acc.DurationSlots()
	if !ok || d1 != 1 {
		t.Fatalf("pure-boundary D̂ = %v (%v), want 1", d1, ok)
	}
	acc.AddBasic(true, true)
	d2, _ := acc.DurationSlots()
	if d2 <= d1 {
		t.Fatalf("adding 11 outcomes did not grow D̂: %v → %v", d1, d2)
	}
}

// Property: Schedule emits strictly increasing slots within bounds, and
// never lets an experiment overrun the horizon.
func TestScheduleInvariantsProperty(t *testing.T) {
	f := func(seed int64, pRaw uint16, improved bool) bool {
		p := (float64(pRaw%900) + 50) / 1000 // 0.05 .. 0.95
		const n = 5000
		plans := MustSchedule(ScheduleConfig{P: p, N: n, Improved: improved, Seed: seed})
		last := int64(-1)
		for _, pl := range plans {
			if pl.Slot <= last {
				return false
			}
			last = pl.Slot
			if pl.Probes != 2 && pl.Probes != 3 {
				return false
			}
			if !improved && pl.Probes != 2 {
				return false
			}
			if pl.Slot < 0 || pl.Slot+int64(pl.Probes) > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Mark returns one verdict per observation and every lossy
// probe is congested, regardless of parameters.
func TestMarkInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(nRaw uint8, alphaRaw uint8, tauMs uint8) bool {
		n := int(nRaw%50) + 1
		obs := make([]ProbeObs, n)
		for i := range obs {
			obs[i] = ProbeObs{
				Slot:        int64(i),
				SentPackets: 3,
				LostPackets: rng.Intn(4),
				OWD:         time.Duration(rng.Intn(200)) * time.Millisecond,
				T:           time.Duration(i*10) * time.Millisecond,
			}
		}
		cfg := MarkerConfig{
			Alpha: float64(alphaRaw%50) / 100,
			Tau:   time.Duration(tauMs) * time.Millisecond,
		}
		out := Mark(obs, cfg)
		if len(out) != n {
			return false
		}
		for i, o := range obs {
			if o.Lost() && !out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKey3Bijective(t *testing.T) {
	seen := map[uint8]bool{}
	for _, b0 := range []bool{false, true} {
		for _, b1 := range []bool{false, true} {
			for _, b2 := range []bool{false, true} {
				k := key3(b0, b1, b2)
				if k > 7 || seen[k] {
					t.Fatalf("key3(%v,%v,%v) = %d not unique in [0,7]", b0, b1, b2, k)
				}
				seen[k] = true
			}
		}
	}
}

func TestAddPanicsOnBadArity(t *testing.T) {
	acc := &Accumulator{}
	defer func() {
		if recover() == nil {
			t.Fatal("4-bit outcome accepted")
		}
	}()
	acc.Add([]bool{true, false, true, false})
}

func TestRecommendedMarkerShape(t *testing.T) {
	slot := DefaultSlot
	low := RecommendedMarker(0.1, slot)
	mid := RecommendedMarker(0.3, slot)
	high := RecommendedMarker(0.9, slot)
	// τ shrinks as p grows (probes arrive more often).
	if !(low.Tau > mid.Tau && mid.Tau > high.Tau) {
		t.Errorf("tau not decreasing in p: %v %v %v", low.Tau, mid.Tau, high.Tau)
	}
	if low.Alpha != 0.2 || mid.Alpha != 0.1 || high.Alpha != 0.5 {
		t.Errorf("alpha table mismatch: %v %v %v", low.Alpha, mid.Alpha, high.Alpha)
	}
	// Paper §6.2: τ ≈ expected gap plus one σ; for p=0.1 that is
	// 5ms × (10 + 9.49) ≈ 97ms.
	if low.Tau < 90*time.Millisecond || low.Tau > 105*time.Millisecond {
		t.Errorf("tau(p=0.1) = %v, want ≈97ms", low.Tau)
	}
	// Zero slot falls back to the default width.
	if def := RecommendedMarker(0.3, 0); def.Tau != mid.Tau {
		t.Errorf("zero-slot tau %v != default-slot tau %v", def.Tau, mid.Tau)
	}
}

func TestValidationPassesCriteriaEdges(t *testing.T) {
	v := Validation{C01: 15, C10: 15}
	if !v.Passes(Criteria{MinBoundarySamples: 30}) {
		t.Error("exactly-at-threshold samples rejected")
	}
	if v.Passes(Criteria{MinBoundarySamples: 31}) {
		t.Error("below-threshold samples accepted")
	}
	v = Validation{C01: 30, C10: 10, BoundaryAsymmetry: 0.5}
	if v.Passes(Criteria{}) {
		t.Error("asymmetric boundaries accepted")
	}
	v = Validation{C01: 20, C10: 20, ViolationRate: 0.5}
	if v.Passes(Criteria{}) {
		t.Error("high violation rate accepted")
	}
}

func TestMonitorStdDevGate(t *testing.T) {
	mon := MonitorConfig{MinExperiments: 1, MaxDurationStdDev: 0.001}
	var acc Accumulator
	// Enough boundaries to pass validation (S = 20), but
	// σ = sqrt(2/S)·slot ≈ 1.6 ms is still above the 1 ms gate.
	for i := 0; i < 10; i++ {
		acc.AddBasic(true, false)
		acc.AddBasic(false, true)
	}
	if mon.Converged(EstimatesOf(&acc)) {
		t.Fatal("converged with σ above the gate")
	}
	for i := 0; i < 25000; i++ {
		acc.AddBasic(true, false)
		acc.AddBasic(false, true)
	}
	if e := EstimatesOf(&acc); !mon.Converged(e) {
		t.Fatalf("did not converge with S huge (σ=%vs)", e.StdDev)
	}
}
