package lab

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/capture"
	"badabing/internal/probe"
	"badabing/internal/simnet"
	"badabing/internal/traffic"
)

// AdaptiveStudy quantifies what §8-style adaptivity buys. Because the
// boundary-evidence rate scales with p while time-to-converge scales with
// 1/p, the total probe *cost* of reaching a validated estimate is roughly
// p-invariant — what differs is whether a given fixed rate converges
// within the time budget at all. §7 says choosing p requires a prior
// estimate of the loss-event rate L; the adaptive controller removes that
// requirement: it converges wherever some fixed rate would have, at a
// bounded escalation premium, without knowing L in advance. The study
// compares fixed high, fixed low and adaptive probing on a lossy and a
// quiet path under one time budget.
type AdaptiveStudyRow struct {
	Path      string
	Strategy  string
	Packets   int
	Converged bool
	// FinalP is the probe probability at the end (for the adaptive
	// strategy, where it escalated to; fixed strategies report their
	// constant).
	FinalP float64
	EstF   float64
	TrueF  float64
}

// AdaptiveStudyResult renders the comparison.
type AdaptiveStudyResult struct {
	Rows []AdaptiveStudyRow
}

func (r AdaptiveStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Adaptive extension: probe cost to a validated estimate")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "path\tstrategy\tprobe pkts\tconverged\tfinal p\test freq\ttrue freq")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%.2f\t%.4f\t%.4f\n",
			row.Path, row.Strategy, row.Packets, row.Converged, row.FinalP, row.EstF, row.TrueF)
	}
	w.Flush()
	return b.String()
}

// adaptivePath describes one workload regime for the study.
type adaptivePath struct {
	name    string
	spacing time.Duration
}

// AdaptiveStudy runs the comparison. cfg.Horizon is the per-strategy
// virtual-time probe budget.
func AdaptiveStudy(cfg RunConfig) AdaptiveStudyResult {
	cfg.applyDefaults()
	paths := []adaptivePath{
		{"lossy (episodes ≈4s)", 4 * time.Second},
		{"quiet (episodes ≈45s)", 45 * time.Second},
	}
	var cells []cell[AdaptiveStudyRow]
	for _, path := range paths {
		for _, strat := range []string{"fixed p=0.9", "fixed p=0.1", "adaptive"} {
			cells = append(cells, cell[AdaptiveStudyRow]{
				key: fmt.Sprintf("adaptivestudy/%s/%s/seed=%d/h=%v", path.name, strat, cfg.Seed, cfg.Horizon),
				run: func() AdaptiveStudyRow { return runAdaptiveStrategy(path, strat, cfg) },
			})
		}
	}
	return AdaptiveStudyResult{Rows: runCells(cfg, cells)}
}

// monCriteria is the convergence bar shared by all strategies.
func monCriteria() badabing.MonitorConfig {
	return badabing.MonitorConfig{
		MinExperiments: 1000,
		Criteria:       badabing.Criteria{MinBoundarySamples: 20},
	}
}

// newStudyPath builds a CBR-episode path with the given mean spacing.
func newStudyPath(path adaptivePath, cfg RunConfig) (*simnet.Sim, *simnet.Dumbbell, *capture.Monitor) {
	sim := simnet.New()
	d := simnet.NewDumbbell(sim, simnet.DumbbellConfig{})
	ids := traffic.NewIDSpace(1000)
	traffic.NewEpisodeInjector(sim, d, ids, traffic.EpisodeInjectorConfig{
		MeanSpacing:     path.spacing,
		Overload:        4,
		BaseUtilization: 0.25,
		Seed:            cfg.Seed,
	})
	mon := capture.Attach(sim, d.Bottleneck, capture.Config{})
	return sim, d, mon
}

const studyRoundSlots = 6000 // 30 s at the default slot

func runAdaptiveStrategy(path adaptivePath, strat string, cfg RunConfig) AdaptiveStudyRow {
	slot := badabing.DefaultSlot
	row := AdaptiveStudyRow{Path: path.name, Strategy: strat}
	sim, d, mon := newStudyPath(path, cfg)

	if strat == "adaptive" {
		ctrl, err := badabing.NewAdaptive(badabing.AdaptiveConfig{
			RoundSlots: studyRoundSlots,
			MaxRounds:  int(cfg.Horizon / (studyRoundSlots * slot)),
			Monitor:    monCriteria(),
			Slot:       slot,
		})
		if err != nil {
			panic(err) // a static configuration
		}
		// cursor tracks the absolute slot index; each round leaves a
		// small drain gap so in-flight probes land before the next
		// round's earliest slot.
		const drainSlots = 300 // 1.5 s at 5 ms
		cursor := int64(0)
		base := cfg.Seed + 500
		_ = ctrl.RunRounds(base, func(round int, plans []badabing.Plan, p float64) (badabing.Counts, error) {
			shifted := make([]badabing.Plan, len(plans))
			for i, pl := range plans {
				shifted[i] = badabing.Plan{Slot: cursor + pl.Slot, Probes: pl.Probes}
			}
			r := startBadabing(sim, d.Bottleneck, d.FwdDemux, probeFlowID+uint64(base+int64(round)), bbConfig{
				plans:  shifted,
				marker: badabing.RecommendedMarker(p, slot),
				probe:  probe.BadabingConfig{Slot: slot},
			})
			cursor += studyRoundSlots
			sim.Run(time.Duration(cursor) * slot) // round ends
			cursor += drainSlots
			sim.Run(time.Duration(cursor) * slot) // in-flight probes land
			sent, _ := r.bb.PacketCounts()
			row.Packets += sent
			return r.counts(), nil
		})
		row.Converged = ctrl.Converged()
		row.FinalP = ctrl.P()
		row.EstF = ctrl.Estimates().Frequency
		row.TrueF = mon.Truth(time.Duration(cursor)*slot, slot).Frequency
		return row
	}

	pFixed := 0.9
	if strat == "fixed p=0.1" {
		pFixed = 0.1
	}
	plans := badabing.MustSchedule(badabing.ScheduleConfig{
		P: pFixed, N: int64(cfg.Horizon / slot), Improved: true, Seed: cfg.Seed + 500,
	})
	r := startBadabing(sim, d.Bottleneck, d.FwdDemux, probeFlowID, bbConfig{
		plans:  plans,
		marker: badabing.RecommendedMarker(pFixed, slot),
		probe:  probe.BadabingConfig{Slot: slot},
	})
	// Advance round by round against the same convergence bar; probes
	// scheduled past the stopping time are never sent, so PacketCounts
	// reflects the true cost.
	var est badabing.Estimates
	elapsed := time.Duration(0)
	for elapsed < cfg.Horizon {
		elapsed += studyRoundSlots * slot
		sim.Run(elapsed + time.Second)
		est = r.estimates()
		if monCriteria().Converged(est) {
			row.Converged = true
			break
		}
	}
	sent, _ := r.bb.PacketCounts()
	row.Packets = sent
	row.FinalP = pFixed
	row.EstF = est.Frequency
	row.TrueF = mon.Truth(elapsed, slot).Frequency
	return row
}
