package badabing

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// recordSynthetic drives a Recorder over a synthetic series.
func recordSynthetic(seed int64, n int) (*Recorder, float64, float64) {
	rng := rand.New(rand.NewSource(seed))
	series, f, d := synthSeries(rng, n, 500, 14)
	plans := MustSchedule(ScheduleConfig{P: 0.2, N: int64(n), Improved: true, Seed: seed + 1})
	rec := &Recorder{}
	for _, pl := range plans {
		bits := make([]bool, pl.Probes)
		for j := range bits {
			bits[j] = series[pl.Slot+int64(j)]
		}
		rec.Add(bits)
	}
	return rec, f, d
}

func TestBootstrapCoversTruth(t *testing.T) {
	rec, trueF, trueD := recordSynthetic(51, 2_000_000)
	freq, dur, durOK := rec.Bootstrap(BootstrapConfig{Resamples: 100, Seed: 7})
	if freq.Lo >= freq.Hi {
		t.Fatalf("degenerate frequency interval: %+v", freq)
	}
	if trueF < freq.Lo || trueF > freq.Hi {
		t.Errorf("true F %v outside 95%% interval [%v, %v]", trueF, freq.Lo, freq.Hi)
	}
	if !durOK {
		t.Fatal("no duration interval despite many boundaries")
	}
	trueDs := trueD * DefaultSlot.Seconds()
	// The duration interval is in seconds; allow some slack since the
	// estimator itself carries bias at finite samples.
	if trueDs < dur.Lo*0.7 || trueDs > dur.Hi*1.3 {
		t.Errorf("true D %.4fs far outside interval [%.4f, %.4f]", trueDs, dur.Lo, dur.Hi)
	}
}

func TestBootstrapPointEstimateInsideInterval(t *testing.T) {
	rec, _, _ := recordSynthetic(52, 1_000_000)
	freq, _, _ := rec.Bootstrap(BootstrapConfig{Resamples: 100, Seed: 9})
	point := rec.Acc.Frequency()
	if point < freq.Lo || point > freq.Hi {
		t.Errorf("point estimate %v outside its own bootstrap interval [%v, %v]",
			point, freq.Lo, freq.Hi)
	}
}

func TestBootstrapIntervalShrinksWithData(t *testing.T) {
	small, _, _ := recordSynthetic(53, 400_000)
	big, _, _ := recordSynthetic(53, 4_000_000)
	fs, _, _ := small.Bootstrap(BootstrapConfig{Resamples: 100, Seed: 3})
	fb, _, _ := big.Bootstrap(BootstrapConfig{Resamples: 100, Seed: 3})
	if fb.Hi-fb.Lo >= fs.Hi-fs.Lo {
		t.Errorf("interval did not shrink: small width %v, big width %v",
			fs.Hi-fs.Lo, fb.Hi-fb.Lo)
	}
}

func TestBootstrapEmptyRecorder(t *testing.T) {
	rec := &Recorder{}
	freq, _, durOK := rec.Bootstrap(BootstrapConfig{})
	if durOK {
		t.Fatal("duration interval from no data")
	}
	if freq.Lo != 0 || freq.Hi != 0 {
		t.Fatalf("non-trivial interval from no data: %+v", freq)
	}
}

func TestBootstrapNoBoundaries(t *testing.T) {
	rec := &Recorder{}
	for i := 0; i < 500; i++ {
		rec.Add([]bool{false, false})
	}
	_, _, durOK := rec.Bootstrap(BootstrapConfig{Resamples: 50})
	if durOK {
		t.Fatal("duration interval despite zero boundary observations")
	}
}

func TestRecorderMatchesAccumulator(t *testing.T) {
	rec := &Recorder{}
	acc := &Accumulator{}
	outcomes := [][]bool{
		{false, false}, {false, true}, {true, true},
		{true, false, false}, {false, true, true},
	}
	for _, o := range outcomes {
		rec.Add(o)
		acc.Add(o)
	}
	if rec.Acc.Frequency() != acc.Frequency() {
		t.Fatal("recorder diverged from accumulator")
	}
	r1, s1 := rec.Acc.RS()
	r2, s2 := acc.RS()
	if r1 != r2 || s1 != s2 {
		t.Fatal("RS counts diverged")
	}
	u1, v1 := rec.Acc.UV()
	u2, v2 := acc.UV()
	if u1 != u2 || v1 != v2 {
		t.Fatal("UV counts diverged")
	}
}

func TestPercentileInterval(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	iv := percentileInterval(xs, 0.90)
	if iv.Lo != 5 || iv.Hi != 95 {
		t.Fatalf("90%% interval [%v, %v], want [5, 95]", iv.Lo, iv.Hi)
	}
}

// TestBootstrapKeepsExtendedPairs: a resample must be estimated exactly
// as the point estimate is. With one block as long as the sequence,
// every resample is the original sequence, so the §5.5 duration
// interval collapses onto the point estimate.
func TestBootstrapKeepsExtendedPairs(t *testing.T) {
	rec := &Recorder{Acc: Accumulator{ExtendedPairs: true}}
	for i := 0; i < 50; i++ {
		rec.Add([]bool{false, true, true})
		rec.Add([]bool{true, false})
		rec.Add([]bool{false, false})
		rec.Add([]bool{true, true, false})
	}
	point, ok := rec.Acc.Duration()
	if !ok {
		t.Fatal("no point estimate")
	}
	_, dur, durOK := rec.Bootstrap(BootstrapConfig{BlockLen: 200})
	if !durOK {
		t.Fatal("no duration interval")
	}
	if dur.Lo != point.Seconds() || dur.Hi != point.Seconds() {
		t.Errorf("duration CI [%v, %v], want the point estimate %v at both ends",
			dur.Lo, dur.Hi, point.Seconds())
	}
}

// refBootstrap is Recorder.Bootstrap as it was before block tallies:
// every resample re-adds each outcome of each drawn block to a fresh
// Accumulator.
func refBootstrap(outcomes [][]bool, slot time.Duration, pairs bool, cfg BootstrapConfig) (freq, dur Interval, durOK bool) {
	cfg.applyDefaults()
	n := len(outcomes)
	if n == 0 {
		return Interval{Level: cfg.Level}, Interval{Level: cfg.Level}, false
	}
	block := min(cfg.BlockLen, n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var freqs, durs []float64
	for b := 0; b < cfg.Resamples; b++ {
		acc := Accumulator{Slot: slot, ExtendedPairs: pairs}
		for filled := 0; filled < n; filled += block {
			start := rng.Intn(n - block + 1)
			for i := 0; i < block && filled+i < n; i++ {
				acc.Add(outcomes[start+i])
			}
		}
		freqs = append(freqs, acc.Frequency())
		if d, ok := acc.Duration(); ok {
			durs = append(durs, d.Seconds())
		}
	}
	freq = percentileInterval(freqs, cfg.Level)
	if len(durs) >= cfg.Resamples/2 {
		return freq, percentileInterval(durs, cfg.Level), true
	}
	return freq, Interval{Level: cfg.Level}, false
}

// TestBootstrapMatchesReference: intervals from block tallies are
// bit-identical to re-adding every outcome, whether a block is longer
// than the sequence, the last block is partial, or extended experiments
// contribute §5.5 pairs, and at every length the sequence grows through.
func TestBootstrapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var outcomes [][]bool
	congested := false
	for len(outcomes) < 1037 {
		if rng.Intn(12) == 0 {
			congested = !congested
		}
		bits := make([]bool, 2+rng.Intn(2))
		for j := range bits {
			bits[j] = congested != (rng.Intn(10) == 0)
		}
		outcomes = append(outcomes, bits)
	}
	bitsOf := func(iv Interval) [3]uint64 {
		return [3]uint64{math.Float64bits(iv.Lo), math.Float64bits(iv.Hi), math.Float64bits(iv.Level)}
	}
	for _, pairs := range []bool{false, true} {
		for _, cfg := range []BootstrapConfig{
			{},                           // 50-outcome blocks: the last one partial at 1037
			{BlockLen: 5000, Seed: 3},    // one block longer than the sequence
			{BlockLen: 7, Resamples: 37}, // many short blocks
			{BlockLen: 1, Level: 0.9, Seed: 11},
		} {
			rec := &Recorder{Acc: Accumulator{Slot: 7 * time.Millisecond, ExtendedPairs: pairs}}
			for i, o := range outcomes {
				rec.Add(o)
				if n := i + 1; n != len(outcomes) && n%211 != 0 && n > 3 {
					continue
				}
				gf, gd, gok := rec.Bootstrap(cfg)
				wf, wd, wok := refBootstrap(outcomes[:i+1], rec.Acc.Slot, pairs, cfg)
				if bitsOf(gf) != bitsOf(wf) || bitsOf(gd) != bitsOf(wd) || gok != wok {
					t.Fatalf("pairs %v, %+v, %d outcomes: got %+v %+v %v, want %+v %+v %v",
						pairs, cfg, i+1, gf, gd, gok, wf, wd, wok)
				}
			}
		}
	}
}
