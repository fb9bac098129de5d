package badabing

// Counts is the transferable state of an Accumulator: every outcome
// tally, with no derived quantities. It exists so that measurement state
// can be merged across rounds or shipped between hosts (the collector
// answers control-channel queries with Counts, and an adaptive sender
// merges them into its own Accumulator to drive escalation decisions).
type Counts struct {
	M int `json:"m"`
	Z int `json:"z"`
	// Two-digit outcome counts, indexed 00, 01, 10, 11.
	C2 [4]int `json:"c2"`
	// Three-digit outcome counts, indexed by the bits b0b1b2 (0..7).
	C3 [8]int `json:"c3"`
}

// Counts snapshots the accumulator's tallies.
func (a *Accumulator) Counts() Counts {
	return Counts{
		M:  a.m,
		Z:  a.z,
		C2: [4]int{a.c00, a.c01, a.c10, a.c11},
		C3: a.c3,
	}
}

// Merge adds another accumulator's counts into a. Slot width and
// ExtendedPairs settings are the receiver's own; merging counts produced
// under a different slot width is a caller error.
func (a *Accumulator) Merge(c Counts) {
	a.m += c.M
	a.z += c.Z
	a.c00 += c.C2[0]
	a.c01 += c.C2[1]
	a.c10 += c.C2[2]
	a.c11 += c.C2[3]
	for k, v := range c.C3 {
		a.c3[k] += v
	}
}

// Add returns the element-wise sum of two Counts.
func (c Counts) Add(o Counts) Counts {
	out := c
	out.M += o.M
	out.Z += o.Z
	for i := range out.C2 {
		out.C2[i] += o.C2[i]
	}
	for i := range out.C3 {
		out.C3[i] += o.C3[i]
	}
	return out
}

// MergeRound feeds a remote round's counts into the adaptive controller
// and applies the end-of-round stopping/escalation rules — the
// control-channel twin of Add+EndRound.
func (a *Adaptive) MergeRound(c Counts) {
	a.acc.Merge(c)
	a.EndRound()
}
