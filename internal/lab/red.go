package lab

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"badabing/internal/badabing"
	"badabing/internal/capture"
	"badabing/internal/probe"
	"badabing/internal/simnet"
	"badabing/internal/traffic"
)

// REDStudy is an extension experiment: the same TCP workload and BADABING
// measurement on a drop-tail bottleneck versus a RED-managed one. RED
// spreads drops thin instead of concentrating them in full-buffer
// episodes, eroding the episode structure the estimators assume — the
// experiment shows how the loss characteristics, the estimates and the
// self-validation verdict all shift.
type REDRow struct {
	Queue     string
	TrueF     float64
	TrueD     float64 // seconds
	LossRate  float64
	Episodes  int
	EstF      float64
	EstD      float64
	Validated bool
}

// REDResult renders the comparison.
type REDResult struct {
	Rows []REDRow
}

func (r REDResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "RED extension: 40 infinite TCP sources, drop-tail vs RED bottleneck")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "queue\ttrue freq\ttrue dur (s)\tloss rate\tepisodes\tBB freq\tBB dur (s)\tvalidated")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.4f\t%.3f\t%.5f\t%d\t%.4f\t%.3f\t%v\n",
			row.Queue, row.TrueF, row.TrueD, row.LossRate, row.Episodes,
			row.EstF, row.EstD, row.Validated)
	}
	w.Flush()
	return b.String()
}

// RED runs the comparison at p = 0.3; the two queue disciplines are
// independent cells on the experiment engine.
func RED(cfg RunConfig) REDResult {
	cfg.applyDefaults()
	var cells []cell[REDRow]
	for _, useRED := range []bool{false, true} {
		cells = append(cells, cell[REDRow]{
			key: fmt.Sprintf("red/aqm=%v/seed=%d/h=%v", useRED, cfg.Seed, cfg.Horizon),
			run: func() REDRow { return redRun(cfg, useRED) },
		})
	}
	return REDResult{Rows: runCells(cfg, cells)}
}

// redRun measures one queue-discipline variant.
func redRun(cfg RunConfig, useRED bool) REDRow {
	sim := simnet.New()
	d := simnet.NewDumbbell(sim, simnet.DumbbellConfig{})
	if useRED {
		d.Bottleneck.SetAQM(simnet.REDForLink(d.Bottleneck, 0.25, 0.75, 0.1, cfg.Seed))
	}
	mon := capture.Attach(sim, d.Bottleneck, capture.Config{})
	ids := traffic.NewIDSpace(1000)
	traffic.NewInfiniteTCP(sim, d, ids, 40)

	slot := badabing.DefaultSlot
	plans := badabing.MustSchedule(badabing.ScheduleConfig{
		P: 0.3, N: int64(cfg.Horizon / slot), Improved: true, Seed: cfg.Seed + 99,
	})
	r := startBadabing(sim, d.Bottleneck, d.FwdDemux, probeFlowID, bbConfig{
		plans:  plans,
		marker: badabing.RecommendedMarker(0.3, slot),
		probe:  probe.BadabingConfig{Slot: slot},
	})
	sim.Run(cfg.Horizon + 1e9)

	truth := mon.Truth(cfg.Horizon, slot)
	est := r.estimates()
	row := REDRow{
		Queue:     "drop-tail",
		TrueF:     truth.Frequency,
		TrueD:     truth.Duration.Mean(),
		LossRate:  truth.LossRate,
		Episodes:  truth.Episodes,
		EstF:      est.Frequency,
		EstD:      est.Duration,
		Validated: est.Validation.Passes(badabing.Criteria{}),
	}
	if useRED {
		row.Queue = "RED"
	}
	return row
}
