package wire

import (
	"time"

	"badabing/internal/badabing"
)

// Clock skew handling (§7): one-way delays measured between unsynchronized
// hosts contain a constant offset plus a slow linear drift (skew). The
// offset cancels inside Mark's minimum-delay baseline, but skew does not —
// over a 15-minute session a 50 ppm drift is 45 ms, comparable to the
// queueing signal itself. EstimateSkew fits a line to the *lower envelope*
// of the (time, delay) cloud: minimum delays are achieved by probes that
// saw an empty queue, so their trend is pure clock drift.

// Skew is a fitted clock-drift estimate.
type Skew struct {
	// PPM is the drift rate in parts per million (receiver clock fast
	// relative to sender ⇒ positive).
	PPM float64
	// Windows is how many envelope points the fit used.
	Windows int
}

// Valid reports whether enough envelope points supported the fit.
func (s Skew) Valid() bool { return s.Windows >= 4 }

// estimateSkew fits the lower envelope of OWD over time. obs must be in
// ascending time order, as AssembleObs builds them. Observations with
// zero OWD (fully lost probes) are ignored.
func estimateSkew(obs []badabing.ProbeObs) Skew {
	type pt struct{ t, d float64 }
	pts := make([]pt, 0, len(obs))
	for _, o := range obs {
		if o.OWD > 0 {
			pts = append(pts, pt{t: o.T.Seconds(), d: o.OWD.Seconds()})
		}
	}
	if len(pts) < 8 {
		return Skew{}
	}
	span := pts[len(pts)-1].t - pts[0].t
	if span <= 0 {
		return Skew{}
	}
	// Lower envelope: the minimum delay within each of up to 16 equal
	// time windows (windows with no samples are skipped).
	const nWin = 16
	t0 := pts[0].t
	mins := make([]pt, 0, nWin)
	cur := -1
	for _, p := range pts {
		w := int((p.t - t0) / span * nWin)
		if w >= nWin {
			w = nWin - 1
		}
		if w != cur {
			mins = append(mins, p)
			cur = w
		} else if p.d < mins[len(mins)-1].d {
			mins[len(mins)-1] = p
		}
	}
	if len(mins) < 4 {
		return Skew{Windows: len(mins)}
	}
	// Least squares over the envelope points.
	var st, sd, stt, std float64
	for _, p := range mins {
		st += p.t
		sd += p.d
		stt += p.t * p.t
		std += p.t * p.d
	}
	n := float64(len(mins))
	den := n*stt - st*st
	if den == 0 {
		return Skew{Windows: len(mins)}
	}
	slope := (n*std - st*sd) / den // seconds of drift per second
	return Skew{PPM: slope * 1e6, Windows: len(mins)}
}

// correctSkew subtracts the fitted drift from every observation's OWD,
// anchored at the session start. OWDs never go below zero.
func correctSkew(obs []badabing.ProbeObs, sk Skew) {
	if !sk.Valid() {
		return
	}
	slope := sk.PPM / 1e6
	for i := range obs {
		if obs[i].OWD == 0 {
			continue
		}
		corr := time.Duration(slope * float64(obs[i].T))
		obs[i].OWD -= corr
		if obs[i].OWD < 0 {
			obs[i].OWD = 0
		}
	}
}
