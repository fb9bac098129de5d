package badabing

// MonitorConfig is the stopping rule for open-ended, self-validating
// measurement (§7's "alternate design ... take measurements continuously,
// and report when our validation techniques confirm that the estimation
// is robust").
type MonitorConfig struct {
	// Criteria accepted for stopping.
	Criteria Criteria
	// MinExperiments before stopping is considered. Default 1000.
	MinExperiments int
	// MaxDurationStdDev additionally requires the §7 reliability bound
	// (in seconds) to fall below this before stopping; zero disables.
	MaxDurationStdDev float64
}

// Converged reports whether the estimates rest on enough validated
// evidence to be trusted.
func (c MonitorConfig) Converged(e Estimates) bool {
	if c.MinExperiments == 0 {
		c.MinExperiments = 1000
	}
	if e.M < c.MinExperiments || !e.Validation.Passes(c.Criteria) {
		return false
	}
	return c.MaxDurationStdDev <= 0 || (e.HasStdDev && e.StdDev <= c.MaxDurationStdDev)
}
