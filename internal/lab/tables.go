package lab

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/probe"
)

// LossRow is one line of a ZING-comparison table (Tables 1–3): a tool's
// loss-frequency and loss-episode-duration estimate, or the true values.
type LossRow struct {
	Name      string
	Frequency float64
	DurMean   float64 // seconds
	DurSD     float64 // seconds
}

// LossTable renders like the paper's Tables 1–3.
type LossTable struct {
	Title string
	Rows  []LossRow
}

func (t LossTable) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, t.Title)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "\tfrequency\tduration µ (σ) seconds")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%s\t%.4f\t%.3f (%.3f)\n", r.Name, r.Frequency, r.DurMean, r.DurSD)
	}
	w.Flush()
	return b.String()
}

// zingTable runs the three-row ZING experiment (true values, 10 Hz/256 B,
// 20 Hz/64 B) on the given scenario. Each tool run uses its own instance
// of the path so probe load does not compound, as in the paper's separate
// tests; the runs are independent cells on the experiment engine.
func zingTable(title string, sc Scenario, cfg RunConfig) LossTable {
	cfg.applyDefaults()
	t := LossTable{Title: title}

	type zspec struct {
		name string
		mean time.Duration
		size int
	}
	specs := []zspec{
		{"ZING (10Hz)", 100 * time.Millisecond, 256},
		{"ZING (20Hz)", 50 * time.Millisecond, 64},
	}

	type zrow struct {
		truth LossRow
		tool  LossRow
	}
	cells := make([]cell[zrow], len(specs))
	for i, spec := range specs {
		i, spec := i, spec
		cells[i] = cell[zrow]{
			key: fmt.Sprintf("zing/%v/%s/seed=%d/h=%v", sc, spec.name, cfg.Seed, cfg.Horizon),
			run: func() zrow {
				p := NewPath(sc, cfg)
				z := probe.StartZing(p.Sim, p.D, probeFlowID, spec.size, probe.ZingConfig{
					Mean:     spec.mean,
					Duration: cfg.Horizon,
					Seed:     cfg.Seed + int64(i),
				})
				p.Run(cfg.Horizon)
				truth := p.Mon.Truth(cfg.Horizon, badabing.DefaultSlot)
				rep := z.Report()
				return zrow{
					truth: LossRow{
						Name:      "true values",
						Frequency: truth.Frequency,
						DurMean:   truth.Duration.Mean(),
						DurSD:     truth.Duration.StdDev(),
					},
					tool: LossRow{
						Name:      spec.name,
						Frequency: rep.Frequency,
						DurMean:   rep.Duration.Mean(),
						DurSD:     rep.Duration.StdDev(),
					},
				}
			},
		}
	}
	rows := runCells(cfg, cells)
	for i, r := range rows {
		if i == 0 {
			t.Rows = append(t.Rows, r.truth)
		}
		t.Rows = append(t.Rows, r.tool)
	}
	return t
}

// Table1 reproduces Table 1: ZING with 40 infinite TCP sources.
func Table1(cfg RunConfig) LossTable {
	return zingTable("Table 1: ZING with infinite TCP sources", InfiniteTCP, cfg)
}

// Table2 reproduces Table 2: ZING with randomly spaced, constant-duration
// loss episodes.
func Table2(cfg RunConfig) LossTable {
	return zingTable("Table 2: ZING with randomly spaced, constant duration loss episodes", CBRUniform, cfg)
}

// Table3 reproduces Table 3: ZING with Harpoon web-like traffic.
func Table3(cfg RunConfig) LossTable {
	return zingTable("Table 3: ZING with Harpoon web-like traffic", Web, cfg)
}

// SweepRow is one line of a BADABING p-sweep table (Tables 4–6).
type SweepRow struct {
	P     float64
	TrueF float64
	EstF  float64
	TrueD float64 // seconds
	EstD  float64 // seconds
}

// SweepTable renders like the paper's Tables 4–6.
type SweepTable struct {
	Title string
	Rows  []SweepRow
}

func (t SweepTable) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, t.Title)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "p\ttrue freq\tBADABING freq\ttrue dur (s)\tBADABING dur (s)")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%.1f\t%.4f\t%.4f\t%.3f\t%.3f\n", r.P, r.TrueF, r.EstF, r.TrueD, r.EstD)
	}
	w.Flush()
	return b.String()
}

// DefaultPSweep is the probe-probability sweep of Tables 4–6.
var DefaultPSweep = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// badabingRun performs one BADABING measurement on a fresh path and
// returns the sweep row. Marker parameters follow §6.2 unless overridden.
func badabingRun(sc Scenario, cfg RunConfig, p float64, marker *badabing.MarkerConfig, improved bool) SweepRow {
	cfg.applyDefaults()
	slot := badabing.DefaultSlot
	n := int64(cfg.Horizon / slot)
	plans := badabing.MustSchedule(badabing.ScheduleConfig{
		P: p, N: n, Improved: improved, Seed: cfg.Seed + 100,
	})
	mk := badabing.RecommendedMarker(p, slot)
	if marker != nil {
		mk = *marker
	}
	est, truth := measure(sc, cfg, bbConfig{plans: plans, marker: mk, probe: probe.BadabingConfig{Slot: slot}})
	return SweepRow{
		P:     p,
		TrueF: truth.Frequency,
		EstF:  est.Frequency,
		TrueD: truth.Duration.Mean(),
		EstD:  est.Duration,
	}
}

func sweepTable(title string, sc Scenario, cfg RunConfig) SweepTable {
	cfg.applyDefaults()
	cells := make([]cell[SweepRow], len(DefaultPSweep))
	for i, p := range DefaultPSweep {
		p := p
		cells[i] = cell[SweepRow]{
			key: fmt.Sprintf("sweep/%v/p=%.1f/seed=%d/h=%v", sc, p, cfg.Seed, cfg.Horizon),
			run: func() SweepRow { return badabingRun(sc, cfg, p, nil, false) },
		}
	}
	return SweepTable{Title: title, Rows: runCells(cfg, cells)}
}

// Table4 reproduces Table 4: BADABING loss estimates for constant-bit-rate
// traffic with loss episodes of uniform duration.
func Table4(cfg RunConfig) SweepTable {
	return sweepTable("Table 4: BADABING estimates, CBR traffic, uniform 68ms episodes", CBRUniform, cfg)
}

// Table5 reproduces Table 5: BADABING with 50/100/150 ms episodes.
func Table5(cfg RunConfig) SweepTable {
	return sweepTable("Table 5: BADABING estimates, CBR traffic, 50/100/150ms episodes", CBRMixed, cfg)
}

// Table6 reproduces Table 6: BADABING with Harpoon web-like traffic.
func Table6(cfg RunConfig) SweepTable {
	return sweepTable("Table 6: BADABING estimates, Harpoon web-like traffic", Web, cfg)
}

// Table7Row is one line of Table 7: the N/τ trade-off at p = 0.1.
type Table7Row struct {
	N     int64
	Tau   time.Duration
	TrueF float64
	EstF  float64
	TrueD float64
	EstD  float64
}

// Table7Result renders like the paper's Table 7.
type Table7Result struct {
	Rows []Table7Row
}

func (t Table7Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 7: p=0.1 trade-off between N and tau (CBR uniform episodes)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "N\ttau (ms)\ttrue freq\tBADABING freq\ttrue dur (s)\tBADABING dur (s)")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%d\t%d\t%.4f\t%.4f\t%.3f\t%.3f\n",
			r.N, r.Tau.Milliseconds(), r.TrueF, r.EstF, r.TrueD, r.EstD)
	}
	w.Flush()
	return b.String()
}

// Table7 reproduces Table 7. The paper's N values (180 000 and 720 000
// slots = 900 s and 3 600 s) scale with cfg.Horizon: the short row uses
// the horizon as-is, the long row 4× that.
func Table7(cfg RunConfig) Table7Result {
	cfg.applyDefaults()
	const p = 0.1
	var cells []cell[Table7Row]
	for _, mult := range []int{1, 4} {
		for _, tau := range []time.Duration{40 * time.Millisecond, 80 * time.Millisecond} {
			mult, tau := mult, tau
			cells = append(cells, cell[Table7Row]{
				key: fmt.Sprintf("table7/mult=%d/tau=%v/seed=%d/h=%v", mult, tau, cfg.Seed, cfg.Horizon),
				run: func() Table7Row {
					runCfg := cfg
					runCfg.Horizon = cfg.Horizon * time.Duration(mult)
					mk := badabing.RecommendedMarker(p, badabing.DefaultSlot)
					mk.Tau = tau
					row := badabingRun(CBRUniform, runCfg, p, &mk, false)
					return Table7Row{
						N:     int64(runCfg.Horizon / badabing.DefaultSlot),
						Tau:   tau,
						TrueF: row.TrueF,
						EstF:  row.EstF,
						TrueD: row.TrueD,
						EstD:  row.EstD,
					}
				},
			})
		}
	}
	return Table7Result{Rows: runCells(cfg, cells)}
}

// Table8Row is one line of the tool-comparison table.
type Table8Row struct {
	Scenario string
	Tool     string
	TrueF    float64
	EstF     float64
	TrueD    float64
	EstD     float64
}

// Table8Result renders like the paper's Table 8.
type Table8Result struct {
	Rows []Table8Row
}

func (t Table8Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 8: BADABING vs ZING at matched probe load (≈876 kb/s)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "traffic\ttool\ttrue freq\tmeasured freq\ttrue dur (s)\tmeasured dur (s)")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%.3f\t%.3f\n",
			r.Scenario, r.Tool, r.TrueF, r.EstF, r.TrueD, r.EstD)
	}
	w.Flush()
	return b.String()
}

// Table8 reproduces Table 8: BADABING at p = 0.3 against ZING whose
// Poisson rate matches BADABING's link load (600-byte packets at ≈180/s ≈
// 876 kb/s, ≈0.5% of the OC3).
func Table8(cfg RunConfig) Table8Result {
	cfg.applyDefaults()
	var cells []cell[Table8Row]
	for _, sc := range []Scenario{CBRUniform, Web} {
		sc := sc
		// BADABING at p=0.3.
		cells = append(cells, cell[Table8Row]{
			key: fmt.Sprintf("table8/%v/badabing/seed=%d/h=%v", sc, cfg.Seed, cfg.Horizon),
			run: func() Table8Row {
				row := badabingRun(sc, cfg, 0.3, nil, false)
				return Table8Row{
					Scenario: sc.String(), Tool: "BADABING",
					TrueF: row.TrueF, EstF: row.EstF, TrueD: row.TrueD, EstD: row.EstD,
				}
			},
		})
		// ZING at the same packet rate: p/slot × pkts-per-probe =
		// 0.3/5ms × 3 = 180 packets/s → mean interval 5.555 ms.
		cells = append(cells, cell[Table8Row]{
			key: fmt.Sprintf("table8/%v/zing/seed=%d/h=%v", sc, cfg.Seed, cfg.Horizon),
			run: func() Table8Row {
				path := NewPath(sc, cfg)
				slotF := float64(badabing.DefaultSlot)
				z := probe.StartZing(path.Sim, path.D, probeFlowID, 600, probe.ZingConfig{
					Mean:     time.Duration(slotF / (0.3 * 3)),
					Duration: cfg.Horizon,
					Seed:     cfg.Seed + 7,
				})
				path.Run(cfg.Horizon)
				truth := path.Mon.Truth(cfg.Horizon, badabing.DefaultSlot)
				rep := z.Report()
				return Table8Row{
					Scenario: sc.String(), Tool: "ZING",
					TrueF: truth.Frequency, EstF: rep.Frequency,
					TrueD: truth.Duration.Mean(), EstD: rep.Duration.Mean(),
				}
			},
		})
	}
	return Table8Result{Rows: runCells(cfg, cells)}
}
