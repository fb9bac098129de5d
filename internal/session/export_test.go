package session

import "badabing/internal/badabing"

// MarkDue runs a mid-run harvest step's marking on its own: the marks it
// gives the probes of plans, against the references of settled.
func MarkDue(settled []badabing.ProbeObs, invalid map[int64]bool, plans []badabing.Plan, marker badabing.MarkerConfig) map[int64]bool {
	h := newHarvester(&Config{Marker: marker}, plans, len(settled), nil, nil)
	return h.markDue(settled, invalid, plans)
}
