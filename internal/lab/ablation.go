package lab

import (
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/probe"
	"badabing/internal/stats"
)

// Ablations probe the design choices DESIGN.md calls out: probe placement
// (per-slot Bernoulli vs Poisson pairs), delay-augmented marking vs
// loss-only marking, basic vs improved estimation, slot width, and probe
// size. Each returns a small table comparing estimator quality under the
// CBR workload where ground truth is sharpest.

// AblationRow is a labelled (frequency, duration) estimate against truth.
type AblationRow struct {
	Variant string
	TrueF   float64
	EstF    float64
	TrueD   float64
	EstD    float64
}

// AblationResult renders an ablation comparison.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

func (a AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, a.Title)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "variant\ttrue freq\test freq\ttrue dur (s)\test dur (s)")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.3f\t%.3f\n", r.Variant, r.TrueF, r.EstF, r.TrueD, r.EstD)
	}
	w.Flush()
	return b.String()
}

// poissonPairPlans builds experiments whose start slots come from a
// Poisson process with the same expected experiment count as the per-slot
// Bernoulli design — the "what if we kept Poisson placement" baseline.
func poissonPairPlans(p float64, n int64, seed int64) []badabing.Plan {
	rng := rand.New(rand.NewSource(seed))
	meanGap := 1 / p // slots between experiment starts
	var plans []badabing.Plan
	slot := 0.0
	for {
		slot += rng.ExpFloat64() * meanGap
		s := int64(slot)
		if s+2 > n {
			break
		}
		plans = append(plans, badabing.Plan{Slot: s, Probes: 2})
	}
	return plans
}

// runWithPlans measures the CBR workload with an explicit plan set.
func runWithPlans(cfg RunConfig, plans []badabing.Plan, marker badabing.MarkerConfig, slot time.Duration, bunch int) AblationRow {
	est, truth := measure(CBRUniform, cfg, bbConfig{
		plans:  plans,
		marker: marker,
		probe:  probe.BadabingConfig{Slot: slot, PacketsPerProbe: bunch},
	})
	return AblationRow{
		TrueF: truth.Frequency, EstF: est.Frequency,
		TrueD: truth.Duration.Mean(), EstD: est.Duration,
	}
}

// AblationPlacement compares per-slot Bernoulli placement (the paper's
// geometric design) against Poisson-placed probe pairs at the same
// expected probe budget.
func AblationPlacement(cfg RunConfig) AblationResult {
	cfg.applyDefaults()
	const p = 0.3
	slot := badabing.DefaultSlot
	n := int64(cfg.Horizon / slot)
	marker := badabing.RecommendedMarker(p, slot)

	rows := runCells(cfg, []cell[AblationRow]{
		{
			key: fmt.Sprintf("ablation/placement/bernoulli/seed=%d/h=%v", cfg.Seed, cfg.Horizon),
			run: func() AblationRow {
				r := runWithPlans(cfg, badabing.MustSchedule(badabing.ScheduleConfig{
					P: p, N: n, Seed: cfg.Seed + 100,
				}), marker, slot, 3)
				r.Variant = "per-slot Bernoulli (BADABING)"
				return r
			},
		},
		{
			key: fmt.Sprintf("ablation/placement/poisson/seed=%d/h=%v", cfg.Seed, cfg.Horizon),
			run: func() AblationRow {
				r := runWithPlans(cfg, poissonPairPlans(p, n, cfg.Seed+100), marker, slot, 3)
				r.Variant = "Poisson-placed pairs"
				return r
			},
		},
	})
	return AblationResult{
		Title: "Ablation: probe placement at equal budget (CBR, p=0.3)",
		Rows:  rows,
	}
}

// AblationMarking compares loss-only congestion marking against the §6.1
// loss+delay marking at a low probe rate, where the delay channel is what
// rescues accuracy.
func AblationMarking(cfg RunConfig) AblationResult {
	cfg.applyDefaults()
	const p = 0.2
	slot := badabing.DefaultSlot
	variants := []struct {
		name   string
		marker badabing.MarkerConfig
		label  string
	}{
		{"delay", badabing.RecommendedMarker(p, slot), "loss + one-way-delay marking"},
		{"loss-only", badabing.MarkerConfig{Alpha: 0, Tau: 0}, "loss-only marking"},
	}
	cells := make([]cell[AblationRow], len(variants))
	for i, v := range variants {
		cells[i] = cell[AblationRow]{
			key: fmt.Sprintf("ablation/marking/%s/seed=%d/h=%v", v.name, cfg.Seed, cfg.Horizon),
			run: func() AblationRow {
				// Both variants mark the same schedule; each cell
				// rebuilds it so the cells stay self-contained.
				plans := badabing.MustSchedule(badabing.ScheduleConfig{
					P: p, N: int64(cfg.Horizon / slot), Seed: cfg.Seed + 100,
				})
				r := runWithPlans(cfg, plans, v.marker, slot, 3)
				r.Variant = v.label
				return r
			},
		}
	}
	return AblationResult{
		Title: "Ablation: congestion marking (CBR, p=0.2)",
		Rows:  runCells(cfg, cells),
	}
}

// AblationEstimator compares the basic and improved duration estimators
// on the same improved-design run.
func AblationEstimator(cfg RunConfig) AblationResult {
	cfg.applyDefaults()
	const p = 0.5
	slot := badabing.DefaultSlot
	// One run feeds both estimator rows; it is a single cell.
	rows := runCells(cfg, []cell[[]AblationRow]{{
		key: fmt.Sprintf("ablation/estimator/seed=%d/h=%v", cfg.Seed, cfg.Horizon),
		run: func() []AblationRow {
			plans := badabing.MustSchedule(badabing.ScheduleConfig{
				P: p, N: int64(cfg.Horizon / slot), Improved: true, Seed: cfg.Seed + 100,
			})
			est, truth := measure(CBRUniform, cfg, bbConfig{
				plans:  plans,
				marker: badabing.RecommendedMarker(p, slot),
				probe:  probe.BadabingConfig{Slot: slot},
			})
			return []AblationRow{{
				Variant: "basic  D̂ = 2(R/S−1)+1",
				TrueF:   truth.Frequency, EstF: est.Frequency,
				TrueD: truth.Duration.Mean(), EstD: orNaN(est.DurationBasic, est.HasDurationBasic),
			}, {
				Variant: "improved  D̂ = (2V/U)(R/S−1)+1",
				TrueF:   truth.Frequency, EstF: est.Frequency,
				TrueD: truth.Duration.Mean(), EstD: orNaN(est.DurationImproved, est.HasDurationImproved),
			}}
		},
	}})
	return AblationResult{
		Title: "Ablation: basic vs improved duration estimator (CBR, p=0.5)",
		Rows:  rows[0],
	}
}

// AblationSlot sweeps the discretization width against fixed 68 ms
// episodes (§7: the discretization need only be finer than the durations
// being estimated; far coarser slots cannot resolve them).
func AblationSlot(cfg RunConfig) AblationResult {
	cfg.applyDefaults()
	res := AblationResult{Title: "Ablation: slot width vs 68ms episodes (CBR, p=0.3)"}
	var cells []cell[AblationRow]
	for _, slot := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		cells = append(cells, cell[AblationRow]{
			key: fmt.Sprintf("ablation/slot=%v/seed=%d/h=%v", slot, cfg.Seed, cfg.Horizon),
			run: func() AblationRow {
				const p = 0.3
				plans := badabing.MustSchedule(badabing.ScheduleConfig{
					P: p, N: int64(cfg.Horizon / slot), Seed: cfg.Seed + 100,
				})
				row := runWithPlans(cfg, plans, badabing.RecommendedMarker(p, slot), slot, 3)
				row.Variant = fmt.Sprintf("slot = %v", slot)
				return row
			},
		})
	}
	res.Rows = runCells(cfg, cells)
	return res
}

// AblationProbeSize compares 1-packet and 3-packet probes at the same
// experiment schedule: multi-packet probes detect episodes that single
// packets sail through (Figure 7's mechanism, measured end to end).
func AblationProbeSize(cfg RunConfig) AblationResult {
	cfg.applyDefaults()
	const p = 0.3
	slot := badabing.DefaultSlot
	res := AblationResult{Title: "Ablation: packets per probe (CBR, p=0.3)"}
	var cells []cell[AblationRow]
	for _, bunch := range []int{1, 3} {
		cells = append(cells, cell[AblationRow]{
			key: fmt.Sprintf("ablation/probesize=%d/seed=%d/h=%v", bunch, cfg.Seed, cfg.Horizon),
			run: func() AblationRow {
				plans := badabing.MustSchedule(badabing.ScheduleConfig{
					P: p, N: int64(cfg.Horizon / slot), Seed: cfg.Seed + 100,
				})
				row := runWithPlans(cfg, plans, badabing.RecommendedMarker(p, slot), slot, bunch)
				row.Variant = fmt.Sprintf("%d packet(s) per probe", bunch)
				return row
			},
		})
	}
	res.Rows = runCells(cfg, cells)
	return res
}

// AblationExtendedPairs compares the improved design with and without the
// §5.5 modification (extended experiments' slot pairs feeding the duration
// estimator) on the same schedule: the pairs increase the effective
// boundary sample without any extra probes.
func AblationExtendedPairs(cfg RunConfig) AblationResult {
	cfg.applyDefaults()
	const p = 0.3
	slot := badabing.DefaultSlot
	res := AblationResult{Title: "Ablation: §5.5 extended-pair reuse (CBR, p=0.3, improved design)"}
	var cells []cell[AblationRow]
	for _, pairs := range []bool{false, true} {
		cells = append(cells, cell[AblationRow]{
			key: fmt.Sprintf("ablation/pairs=%v/seed=%d/h=%v", pairs, cfg.Seed, cfg.Horizon),
			run: func() AblationRow {
				plans := badabing.MustSchedule(badabing.ScheduleConfig{
					P: p, N: int64(cfg.Horizon / slot), Improved: true, Seed: cfg.Seed + 100,
				})
				est, truth := measure(CBRUniform, cfg, bbConfig{
					plans:  plans,
					marker: badabing.RecommendedMarker(p, slot),
					probe:  probe.BadabingConfig{Slot: slot},
					pairs:  pairs,
				})
				row := AblationRow{
					Variant: "pairs off",
					TrueF:   truth.Frequency, EstF: est.Frequency,
					TrueD: truth.Duration.Mean(), EstD: est.Duration,
				}
				if pairs {
					row.Variant = "pairs on (§5.5)"
				}
				return row
			},
		})
	}
	res.Rows = runCells(cfg, cells)
	return res
}

// MeanFreqError is the mean relative frequency error over rows, used by
// the benchmark harness to report estimate quality as a metric.
func MeanFreqError(rows []AblationRow) float64 {
	var s stats.Summary
	for _, r := range rows {
		if r.TrueF > 0 {
			s.Add(absf(r.EstF-r.TrueF) / r.TrueF)
		}
	}
	return s.Mean()
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
