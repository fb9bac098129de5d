// Package badabing implements the paper's primary contribution (§5–§6 of
// "Improving Accuracy in End-to-end Packet Loss Measurement", SIGCOMM
// 2005): a discrete-time probe process and estimators for loss-episode
// frequency and mean loss-episode duration, together with the validation
// tests that make the tool self-calibrating.
//
// Time is discretized into slots of width Delta (the paper uses 5 ms). At
// each slot, independently with probability p, a *basic experiment* starts:
// probes are sent in slots i and i+1, and each reports one bit — whether it
// observed congestion. The improved design flips a fair coin to instead run
// an *extended experiment* of three probes at slots i, i+1, i+2, which
// allows estimating the ratio r = p2/p1 of detection probabilities and
// correcting the duration estimator's bias.
//
// The package is transport-agnostic: both the simulator prober
// (internal/probe) and the real UDP tool (internal/wire) feed observations
// through Marker and Accumulator.
package badabing

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// DefaultSlot is the paper's discretization interval.
const DefaultSlot = 5 * time.Millisecond

// MaxSlots bounds a schedule's slot count: 11.6 h at 5 ms slots, 2.3 h at
// 1 ms. Drawing a schedule costs time and memory linear in N, and N
// arrives off the network in probe headers and session specs, so one
// packet or request must not be able to buy an unbounded loop.
const MaxSlots = 1 << 23

// Plan is one scheduled experiment.
type Plan struct {
	Slot   int64 // first slot index
	Probes int   // 2 for basic, 3 for extended
}

// ScheduleConfig controls experiment generation.
type ScheduleConfig struct {
	// P is the per-slot probability of starting an experiment.
	P float64
	// N is the number of slots in the full experiment.
	N int64
	// Improved selects the improved design: each experiment is
	// extended with probability ExtendedFraction.
	Improved bool
	// ExtendedFraction is the probability that an improved-design
	// experiment uses three probes instead of two. nil selects the
	// paper's 1/2; §5.5 notes the weighting may be varied — basic
	// experiments cost less probe load, while extended ones feed the
	// r̂ correction (and, with Accumulator.ExtendedPairs, the duration
	// estimate itself). An explicit &0.0 disables extended experiments
	// entirely (use Fraction to build the pointer).
	ExtendedFraction *float64
	// Seed for the schedule RNG.
	Seed int64
}

// Fraction returns a pointer to f, for setting
// ScheduleConfig.ExtendedFraction in a composite literal.
func Fraction(f float64) *float64 { return &f }

// Validate checks the configuration without drawing a schedule. NaN
// probabilities are rejected by the same comparisons as out-of-range ones.
func (cfg ScheduleConfig) Validate() error {
	if !(cfg.P > 0 && cfg.P <= 1) {
		return fmt.Errorf("badabing: probe probability %v out of (0,1]", cfg.P)
	}
	if cfg.N <= 0 || cfg.N > MaxSlots {
		return fmt.Errorf("badabing: slot count %d out of range [1,%d]", cfg.N, MaxSlots)
	}
	if f := cfg.ExtendedFraction; f != nil && !(*f >= 0 && *f <= 1) {
		return fmt.Errorf("badabing: extended fraction %v out of [0,1]", *f)
	}
	return nil
}

// Schedule draws the experiment start slots. Experiments whose probes
// would overlap a previous experiment's slots are kept — the process is
// defined per-slot independent — but ones extending past N are truncated
// away. An invalid configuration returns an error (never a panic), so
// services can reject bad requests without crashing.
func Schedule(cfg ScheduleConfig) ([]Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	extFrac := 0.5
	if cfg.ExtendedFraction != nil {
		extFrac = *cfg.ExtendedFraction
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var plans []Plan
	for i := int64(0); i < cfg.N; i++ {
		if rng.Float64() >= cfg.P {
			continue
		}
		n := 2
		if cfg.Improved && rng.Float64() < extFrac {
			n = 3
		}
		if i+int64(n) > cfg.N {
			break
		}
		plans = append(plans, Plan{Slot: i, Probes: n})
	}
	return plans, nil
}

// MustSchedule is Schedule for statically known-good configurations; it
// panics on an invalid one. Anything handling untrusted configuration
// (network headers, API requests) must use Schedule and propagate the
// error instead.
func MustSchedule(cfg ScheduleConfig) []Plan {
	plans, err := Schedule(cfg)
	if err != nil {
		panic(err)
	}
	return plans
}

// Accumulator tallies experiment outcomes yi and computes the paper's
// estimators. The zero value (plus a Slot width) is ready for use.
type Accumulator struct {
	// Slot is the discretization width used to convert the duration
	// estimate from slots to time. Defaults to DefaultSlot when zero.
	Slot time.Duration

	// ExtendedPairs enables the §5.5 modification: each extended
	// (three-probe) experiment also contributes its two overlapping
	// slot pairs to the R/S counts used by the duration estimators,
	// "thereby decreasing the total number of probes that are required
	// in order to achieve the same level of confidence". The extra
	// pairs shrink variance; under the basic algorithm's p1 = p2
	// assumption they are unbiased samples of the same pair process
	// (with p1 ≠ p2 they inherit the triple's detection probability,
	// a second-order effect the validation checks would surface).
	ExtendedPairs bool

	m int // experiments observed
	z int // sum of first digits (for F̂)

	// Two-digit outcome counts.
	c00, c01, c10, c11 int
	// Three-digit outcome counts, indexed by key3.
	c3 [8]int
}

// key packs up to three bits: b0<<2 | b1<<1 | b2.
func key3(b0, b1, b2 bool) uint8 {
	var k uint8
	if b0 {
		k |= 4
	}
	if b1 {
		k |= 2
	}
	if b2 {
		k |= 1
	}
	return k
}

// AddBasic records a basic experiment outcome: the congestion bits of the
// probes at slots i and i+1.
func (a *Accumulator) AddBasic(b0, b1 bool) {
	a.m++
	if b0 {
		a.z++
	}
	switch {
	case !b0 && !b1:
		a.c00++
	case !b0 && b1:
		a.c01++
	case b0 && !b1:
		a.c10++
	default:
		a.c11++
	}
}

// AddExtended records an extended experiment outcome (slots i, i+1, i+2).
func (a *Accumulator) AddExtended(b0, b1, b2 bool) {
	a.m++
	if b0 {
		a.z++
	}
	a.c3[key3(b0, b1, b2)]++
	if a.ExtendedPairs {
		a.addPair(b0, b1)
		a.addPair(b1, b2)
	}
}

// addPair tallies a slot pair into the two-digit counts without counting
// a new experiment (used by the §5.5 ExtendedPairs modification).
func (a *Accumulator) addPair(b0, b1 bool) {
	switch {
	case !b0 && !b1:
		a.c00++
	case !b0 && b1:
		a.c01++
	case b0 && !b1:
		a.c10++
	default:
		a.c11++
	}
}

// Add records an outcome of either shape.
func (a *Accumulator) Add(bits []bool) {
	switch len(bits) {
	case 2:
		a.AddBasic(bits[0], bits[1])
	case 3:
		a.AddExtended(bits[0], bits[1], bits[2])
	default:
		panic(fmt.Sprintf("badabing: experiment with %d probes", len(bits)))
	}
}

// M returns the number of experiments recorded.
func (a *Accumulator) M() int { return a.m }

// slotWidth returns the effective slot duration.
func (a *Accumulator) slotWidth() time.Duration {
	if a.Slot == 0 {
		return DefaultSlot
	}
	return a.Slot
}

// Frequency returns the unbiased estimator F̂ = Σ zi / M of the fraction
// of congested slots. It returns 0 for an empty accumulator.
func (a *Accumulator) Frequency() float64 {
	if a.m == 0 {
		return 0
	}
	return float64(a.z) / float64(a.m)
}

// RS returns the basic-design counts R = #{yi ∈ {01,10,11}} and
// S = #{yi ∈ {01,10}}.
func (a *Accumulator) RS() (r, s int) {
	return a.c01 + a.c10 + a.c11, a.c01 + a.c10
}

// UV returns the improved-design counts U = #{yi ∈ {011,110}} and
// V = #{yi ∈ {001,100}}.
func (a *Accumulator) UV() (u, v int) {
	u = a.c3[key3(false, true, true)] + a.c3[key3(true, true, false)]
	v = a.c3[key3(false, false, true)] + a.c3[key3(true, false, false)]
	return u, v
}

// DurationSlots returns the basic-algorithm duration estimate
// D̂ = 2(R/S − 1) + 1 in slots. ok is false when S = 0 (no episode
// boundary was ever observed, so no estimate exists).
func (a *Accumulator) DurationSlots() (slots float64, ok bool) {
	r, s := a.RS()
	if s == 0 {
		return 0, false
	}
	return 2*(float64(r)/float64(s)-1) + 1, true
}

// Duration returns the basic-algorithm estimate as a time.Duration.
func (a *Accumulator) Duration() (time.Duration, bool) {
	slots, ok := a.DurationSlots()
	if !ok {
		return 0, false
	}
	return time.Duration(slots * float64(a.slotWidth())), true
}

// RHat estimates r = p2/p1 from extended experiments as U/V. ok is false
// when V = 0.
func (a *Accumulator) RHat() (r float64, ok bool) {
	u, v := a.UV()
	if v == 0 {
		return 0, false
	}
	return float64(u) / float64(v), true
}

// DurationSlotsImproved returns the improved-algorithm estimate
// D̂ = (2V/U)(R/S − 1) + 1 in slots, which remains consistent when
// p1 ≠ p2. ok is false when S = 0 or U = 0.
func (a *Accumulator) DurationSlotsImproved() (slots float64, ok bool) {
	r, s := a.RS()
	u, v := a.UV()
	if s == 0 || u == 0 {
		return 0, false
	}
	return (2*float64(v)/float64(u))*(float64(r)/float64(s)-1) + 1, true
}

// DurationImproved returns the improved estimate as a time.Duration.
func (a *Accumulator) DurationImproved() (time.Duration, bool) {
	slots, ok := a.DurationSlotsImproved()
	if !ok {
		return 0, false
	}
	return time.Duration(slots * float64(a.slotWidth())), true
}

// EpisodeRateHat estimates B̂, the number of loss episodes per slot,
// from S ≈ 2pB over N slots: B̂/N = S/(2pN). It feeds the §7 standard
// deviation approximation.
func (a *Accumulator) EpisodeRateHat(p float64, n int64) float64 {
	if p <= 0 || n <= 0 {
		return 0
	}
	_, s := a.RS()
	return float64(s) / (2 * p * float64(n))
}

// DurationStdDev returns the §7 reliability approximation
// StdDev(duration) ≈ 1/sqrt(pNL), with L estimated from the data.
// With L̂ = S/(2pN), this reduces to sqrt(2/S).
func (a *Accumulator) DurationStdDev() (float64, bool) {
	_, s := a.RS()
	if s == 0 {
		return 0, false
	}
	return math.Sqrt(2 / float64(s)), true
}
