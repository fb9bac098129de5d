package badabing

import "math"

// Validation is the outcome of the paper's §5.4 checks: simple tests,
// requiring no extra experimentation, for the statistical assumptions
// underlying the estimators. They make the tool self-calibrating — able to
// report when its own estimates should not be trusted.
type Validation struct {
	// C01 and C10 are the basic-design boundary counts. The design
	// assumes P(yi=01) = P(yi=10); a persistent imbalance not bridged
	// by more experiments invalidates the estimates.
	C01 int `json:"c01"`
	C10 int `json:"c10"`
	// BoundaryAsymmetry is |C01−C10| / (C01+C10), in [0,1].
	BoundaryAsymmetry float64 `json:"boundary_asymmetry"`
	// SingleCounts are the improved-design rates that should agree:
	// counts of 01, 10, 001, 100.
	SingleCounts [4]int `json:"single_counts"`
	// SingleSpread is (max−min)/mean over SingleCounts.
	SingleSpread float64 `json:"single_spread"`
	// DoubleCounts are counts of 011 and 110, which should also agree.
	DoubleCounts [2]int `json:"double_counts"`
	// Violations counts yi ∈ {010, 101}, each occurrence of which
	// contradicts the model's assumptions outright.
	Violations int `json:"violations"`
	// ViolationRate is Violations divided by the number of extended
	// experiments that observed any congestion (all-zero outcomes
	// carry no evidence either way).
	ViolationRate float64 `json:"violation_rate"`
}

// Criteria are acceptance thresholds for Validation. The zero value is
// completed with pragmatic defaults.
type Criteria struct {
	// MaxBoundaryAsymmetry: default 0.2.
	MaxBoundaryAsymmetry float64
	// MinBoundarySamples requires C01+C10 ≥ this before the asymmetry
	// test is meaningful. Default 20.
	MinBoundarySamples int
	// MaxViolationRate: default 0.1.
	MaxViolationRate float64
}

func (c *Criteria) applyDefaults() {
	if c.MaxBoundaryAsymmetry == 0 {
		c.MaxBoundaryAsymmetry = 0.2
	}
	if c.MinBoundarySamples == 0 {
		c.MinBoundarySamples = 20
	}
	if c.MaxViolationRate == 0 {
		c.MaxViolationRate = 0.1
	}
}

// Validate computes the §5.4 checks over the accumulated outcomes.
func (a *Accumulator) Validate() Validation {
	v := Validation{C01: a.c01, C10: a.c10}
	if tot := a.c01 + a.c10; tot > 0 {
		v.BoundaryAsymmetry = math.Abs(float64(a.c01-a.c10)) / float64(tot)
	}
	v.SingleCounts = [4]int{
		a.c01,
		a.c10,
		a.c3[key3(false, false, true)],
		a.c3[key3(true, false, false)],
	}
	min, max, sum := v.SingleCounts[0], v.SingleCounts[0], 0
	for _, c := range v.SingleCounts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
		sum += c
	}
	if sum > 0 {
		v.SingleSpread = float64(max-min) * 4 / float64(sum)
	}
	v.DoubleCounts = [2]int{
		a.c3[key3(false, true, true)],
		a.c3[key3(true, true, false)],
	}
	v.Violations = a.c3[key3(false, true, false)] + a.c3[key3(true, false, true)]
	nonZero := 0
	for k, c := range a.c3 {
		if k != 0 {
			nonZero += c
		}
	}
	if nonZero > 0 {
		v.ViolationRate = float64(v.Violations) / float64(nonZero)
	}
	return v
}

// Passes reports whether the validation satisfies the criteria. It is the
// stopping rule for open-ended experimentation (§5.4, §7): keep probing
// until Passes returns true, or give up and reject the estimates.
func (v Validation) Passes(c Criteria) bool {
	c.applyDefaults()
	if v.C01+v.C10 < c.MinBoundarySamples {
		return false
	}
	if v.BoundaryAsymmetry > c.MaxBoundaryAsymmetry {
		return false
	}
	if v.ViolationRate > c.MaxViolationRate {
		return false
	}
	return true
}
