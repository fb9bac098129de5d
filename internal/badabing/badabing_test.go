package badabing

import (
	"math"
	"math/rand"
	"testing"
)

// synthSeries generates an alternating renewal congestion series over n
// slots: geometric uncongested gaps with the given mean and episodes of
// exactly epLen slots. Returns the series and the true (F, D).
func synthSeries(rng *rand.Rand, n int, gapMean float64, epLen int) (series []bool, f float64, d float64) {
	series = make([]bool, n)
	congested := 0
	episodes := 0
	i := 0
	for i < n {
		gap := 1 + int(rng.ExpFloat64()*gapMean)
		i += gap
		if i >= n {
			break
		}
		episodes++
		for j := 0; j < epLen && i < n; j++ {
			series[i] = true
			congested++
			i++
		}
	}
	if episodes == 0 {
		return series, 0, 0
	}
	return series, float64(congested) / float64(n), float64(congested) / float64(episodes)
}

// observe applies the paper's §5.2.1 detection model to the true bits of
// one experiment: a correct report with probability p1 (one congested
// slot) or p2 (two or more), otherwise all-zeros.
func observe(rng *rand.Rand, truth []bool, p1, p2 float64) []bool {
	ones := 0
	for _, b := range truth {
		if b {
			ones++
		}
	}
	if ones == 0 {
		return truth
	}
	pk := p1
	if ones >= 2 {
		pk = p2
	}
	if rng.Float64() < pk {
		return truth
	}
	return make([]bool, len(truth))
}

// runSynthetic probes a synthetic series and returns the accumulator.
func runSynthetic(t *testing.T, seed int64, n int, gapMean float64, epLen int, p, p1, p2 float64, improved bool) (*Accumulator, float64, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	series, trueF, trueD := synthSeries(rng, n, gapMean, epLen)
	if trueD == 0 {
		t.Fatal("synthetic series has no episodes")
	}
	plans := MustSchedule(ScheduleConfig{P: p, N: int64(n), Improved: improved, Seed: seed + 1})
	acc := &Accumulator{}
	for _, pl := range plans {
		truth := make([]bool, pl.Probes)
		for j := range truth {
			truth[j] = series[pl.Slot+int64(j)]
		}
		acc.Add(observe(rng, truth, p1, p2))
	}
	return acc, trueF, trueD
}

func TestFrequencyUnbiasedPerfectprobes(t *testing.T) {
	acc, trueF, _ := runSynthetic(t, 1, 2_000_000, 500, 14, 0.2, 1, 1, false)
	got := acc.Frequency()
	if math.Abs(got-trueF) > 0.15*trueF {
		t.Errorf("F̂ = %v, true F = %v (>15%% off)", got, trueF)
	}
}

func TestDurationConsistentPerfectProbes(t *testing.T) {
	acc, _, trueD := runSynthetic(t, 2, 2_000_000, 500, 14, 0.2, 1, 1, false)
	got, ok := acc.DurationSlots()
	if !ok {
		t.Fatal("no duration estimate")
	}
	if math.Abs(got-trueD) > 0.15*trueD {
		t.Errorf("D̂ = %v slots, true D = %v (>15%% off)", got, trueD)
	}
}

func TestDurationConsistentEqualDetection(t *testing.T) {
	// p1 = p2 = 0.6: the basic estimator remains consistent (r = 1)
	// even though individual probes miss congestion 40% of the time.
	acc, _, trueD := runSynthetic(t, 3, 4_000_000, 500, 14, 0.2, 0.6, 0.6, false)
	got, ok := acc.DurationSlots()
	if !ok {
		t.Fatal("no duration estimate")
	}
	if math.Abs(got-trueD) > 0.2*trueD {
		t.Errorf("D̂ = %v slots, true D = %v (>20%% off with p1=p2=0.6)", got, trueD)
	}
}

func TestFrequencyAttenuatedByDetection(t *testing.T) {
	// With p1 = p2 = q < 1, F̂ converges to q·F: the estimator is
	// unbiased only under the basic algorithm's p1 = p2 = 1 assumption.
	const q = 0.5
	acc, trueF, _ := runSynthetic(t, 4, 2_000_000, 500, 14, 0.2, q, q, false)
	got := acc.Frequency()
	want := q * trueF
	if math.Abs(got-want) > 0.2*want {
		t.Errorf("F̂ = %v, want ≈ q·F = %v", got, want)
	}
}

func TestBasicDurationBiasedWhenP1NeqP2(t *testing.T) {
	// p2 < p1 makes the basic estimator underestimate duration.
	acc, _, trueD := runSynthetic(t, 5, 4_000_000, 500, 14, 0.3, 0.9, 0.45, true)
	basic, ok := acc.DurationSlots()
	if !ok {
		t.Fatal("no basic estimate")
	}
	if basic > 0.8*trueD {
		t.Errorf("basic D̂ = %v not visibly biased low vs true %v with r=0.5", basic, trueD)
	}
}

func TestImprovedDurationCorrectsBias(t *testing.T) {
	acc, _, trueD := runSynthetic(t, 6, 6_000_000, 500, 14, 0.3, 0.9, 0.45, true)
	imp, ok := acc.DurationSlotsImproved()
	if !ok {
		t.Fatal("no improved estimate")
	}
	if math.Abs(imp-trueD) > 0.25*trueD {
		t.Errorf("improved D̂ = %v, true %v (>25%% off)", imp, trueD)
	}
	r, ok := acc.RHat()
	if !ok {
		t.Fatal("no r estimate")
	}
	if math.Abs(r-0.5) > 0.15 {
		t.Errorf("r̂ = %v, want ≈0.5", r)
	}
}

func TestScheduleDensityAndShape(t *testing.T) {
	const n, p = 100_000, 0.3
	plans := MustSchedule(ScheduleConfig{P: p, N: n, Seed: 7})
	got := float64(len(plans)) / n
	if math.Abs(got-p) > 0.02 {
		t.Errorf("experiment density %v, want ≈%v", got, p)
	}
	for _, pl := range plans {
		if pl.Probes != 2 {
			t.Fatalf("basic-only schedule contains %d-probe experiment", pl.Probes)
		}
		if pl.Slot < 0 || pl.Slot+int64(pl.Probes) > n {
			t.Fatalf("experiment at slot %d overruns horizon", pl.Slot)
		}
	}
}

func TestScheduleImprovedMix(t *testing.T) {
	plans := MustSchedule(ScheduleConfig{P: 0.3, N: 100_000, Improved: true, Seed: 8})
	ext := 0
	for _, pl := range plans {
		if pl.Probes == 3 {
			ext++
		} else if pl.Probes != 2 {
			t.Fatalf("unexpected probe count %d", pl.Probes)
		}
	}
	frac := float64(ext) / float64(len(plans))
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("extended fraction %v, want ≈0.5", frac)
	}
}

func TestScheduleInvalidP(t *testing.T) {
	for _, p := range []float64{0, -0.1, 1.5, math.NaN()} {
		if _, err := Schedule(ScheduleConfig{P: p, N: 10}); err == nil {
			t.Errorf("Schedule(P=%v) accepted", p)
		}
	}
	if _, err := Schedule(ScheduleConfig{P: 0.5, N: 0}); err == nil {
		t.Error("Schedule(N=0) accepted")
	}
	if err := (ScheduleConfig{P: 0.5, N: MaxSlots}).Validate(); err != nil {
		t.Errorf("N=MaxSlots rejected: %v", err)
	}
	for _, n := range []int64{MaxSlots + 1, 1 << 62} {
		if _, err := Schedule(ScheduleConfig{P: 0.5, N: n}); err == nil {
			t.Errorf("Schedule(N=%d) accepted", n)
		}
	}
	if _, err := Schedule(ScheduleConfig{P: 0.5, N: 10}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMustSchedulePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchedule(P=0) did not panic")
		}
	}()
	MustSchedule(ScheduleConfig{P: 0, N: 10})
}

func TestAccumulatorCounts(t *testing.T) {
	acc := &Accumulator{}
	acc.AddBasic(false, false) // 00
	acc.AddBasic(false, true)  // 01
	acc.AddBasic(true, false)  // 10
	acc.AddBasic(true, true)   // 11
	acc.AddBasic(true, true)   // 11
	r, s := acc.RS()
	if r != 4 || s != 2 {
		t.Fatalf("R,S = %d,%d; want 4,2", r, s)
	}
	if acc.M() != 5 {
		t.Fatalf("M = %d, want 5", acc.M())
	}
	if got, want := acc.Frequency(), 3.0/5.0; got != want {
		t.Fatalf("F̂ = %v, want %v", got, want)
	}
	d, ok := acc.DurationSlots()
	if !ok || d != 2*(4.0/2.0-1)+1 {
		t.Fatalf("D̂ = %v (%v), want 3", d, ok)
	}
}

func TestAccumulatorExtendedCounts(t *testing.T) {
	acc := &Accumulator{}
	acc.AddExtended(false, true, true)  // 011 → U
	acc.AddExtended(true, true, false)  // 110 → U
	acc.AddExtended(false, false, true) // 001 → V
	acc.AddExtended(true, false, true)  // 101 → violation
	u, v := acc.UV()
	if u != 2 || v != 1 {
		t.Fatalf("U,V = %d,%d; want 2,1", u, v)
	}
	val := acc.Validate()
	if val.Violations != 1 {
		t.Fatalf("violations = %d, want 1", val.Violations)
	}
	r, ok := acc.RHat()
	if !ok || r != 2 {
		t.Fatalf("r̂ = %v (%v), want 2", r, ok)
	}
}

func TestDurationUndefinedWithoutBoundaries(t *testing.T) {
	acc := &Accumulator{}
	for i := 0; i < 100; i++ {
		acc.AddBasic(false, false)
	}
	if _, ok := acc.Duration(); ok {
		t.Fatal("duration defined with S=0")
	}
	if _, ok := acc.DurationStdDev(); ok {
		t.Fatal("stddev defined with S=0")
	}
}

func TestValidationSymmetryOnCleanProcess(t *testing.T) {
	acc, _, _ := runSynthetic(t, 9, 2_000_000, 500, 14, 0.3, 1, 1, true)
	v := acc.Validate()
	if v.BoundaryAsymmetry > 0.15 {
		t.Errorf("boundary asymmetry %v on a clean renewal process", v.BoundaryAsymmetry)
	}
	if !v.Passes(Criteria{}) {
		t.Errorf("validation failed on a clean process: %+v", v)
	}
}

func TestValidationDetectsShortGapViolations(t *testing.T) {
	// A process with many 1-slot gaps produces 101 patterns, which the
	// model treats as assumption violations.
	n := 500_000
	series := make([]bool, n)
	for i := 0; i < n; i++ {
		// Alternate 1-congested/1-clear in bursts.
		if (i/2)%40 == 0 && i%2 == 0 {
			series[i] = true
		}
	}
	plans := MustSchedule(ScheduleConfig{P: 0.5, N: int64(n), Improved: true, Seed: 11})
	acc := &Accumulator{}
	for _, pl := range plans {
		bits := make([]bool, pl.Probes)
		for j := range bits {
			bits[j] = series[pl.Slot+int64(j)]
		}
		acc.Add(bits)
	}
	v := acc.Validate()
	if v.Violations == 0 {
		t.Fatal("no violations detected on a pathological series")
	}
	if v.Passes(Criteria{}) {
		t.Errorf("validation passed despite violation rate %v", v.ViolationRate)
	}
}

func TestDurationStdDevShrinksWithData(t *testing.T) {
	short, _, _ := runSynthetic(t, 12, 200_000, 500, 14, 0.2, 1, 1, false)
	long, _, _ := runSynthetic(t, 12, 4_000_000, 500, 14, 0.2, 1, 1, false)
	s1, ok1 := short.DurationStdDev()
	s2, ok2 := long.DurationStdDev()
	if !ok1 || !ok2 {
		t.Fatal("stddev undefined")
	}
	if s2 >= s1 {
		t.Errorf("stddev did not shrink with more data: %v → %v", s1, s2)
	}
}

func TestEstimatesOfFields(t *testing.T) {
	acc, _, _ := runSynthetic(t, 13, 1_000_000, 500, 14, 0.3, 1, 1, true)
	e := EstimatesOf(acc)
	if e.M != acc.M() {
		t.Errorf("estimates M = %d, want %d", e.M, acc.M())
	}
	if !e.HasDuration {
		t.Error("estimates should have a duration")
	}
	if !e.HasDurationBasic || !e.HasDurationImproved {
		t.Error("both estimators should be defined")
	}
	if e.Frequency <= 0 {
		t.Error("frequency should be positive")
	}
	if !e.HasStdDev || e.StdDev <= 0 {
		t.Error("stddev should be defined and positive")
	}
	if e.Validation != acc.Validate() {
		t.Errorf("validation %+v, want the accumulator's %+v", e.Validation, acc.Validate())
	}
}

func TestMonitorConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	series, _, _ := synthSeries(rng, 4_000_000, 500, 14)
	mon := MonitorConfig{MinExperiments: 500}
	var acc Accumulator
	plans := MustSchedule(ScheduleConfig{P: 0.2, N: int64(len(series)), Improved: true, Seed: 15})
	converged := false
	var used int
	for i, pl := range plans {
		bits := make([]bool, pl.Probes)
		for j := range bits {
			bits[j] = series[pl.Slot+int64(j)]
		}
		acc.Add(bits)
		if mon.Converged(EstimatesOf(&acc)) {
			converged = true
			used = i + 1
			break
		}
	}
	if !converged {
		t.Fatal("monitor never converged on a clean process")
	}
	if used == len(plans) {
		t.Error("monitor only converged at the very end")
	}
	if !EstimatesOf(&acc).HasDuration {
		t.Error("converged monitor lacks duration estimate")
	}
}

func TestAssembleSkipsIncomplete(t *testing.T) {
	acc := &Accumulator{}
	plans := []Plan{{Slot: 0, Probes: 2}, {Slot: 10, Probes: 2}, {Slot: 20, Probes: 3}}
	marked := map[int64]bool{0: false, 1: true, 20: true, 21: true, 22: false}
	var starts []int64
	skipped := Assemble(plans, marked, func(slot int64, bits []bool) {
		starts = append(starts, slot)
		acc.Add(bits)
	})
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 20 {
		t.Fatalf("observed start slots %v, want [0 20]", starts)
	}
	if acc.M() != 2 {
		t.Fatalf("M = %d, want 2", acc.M())
	}
	u, _ := acc.UV()
	if u != 1 { // 110 recorded
		t.Fatalf("U = %d, want 1", u)
	}
}
