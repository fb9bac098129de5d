// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus one per ablation in DESIGN.md. Each benchmark runs the
// corresponding lab experiment end to end on the simulated testbed and
// reports estimate-quality metrics alongside the usual time/allocs.
//
// Benchmarks use shortened horizons so `go test -bench=.` finishes in
// minutes; cmd/labsim runs the same experiments at the paper's full
// 900-second scale. The horizon can be overridden with
// BADABING_BENCH_HORIZON (a Go duration string).
package badabing_test

import (
	"os"
	"testing"
	"time"

	"badabing/internal/lab"
)

// benchHorizon is the per-run measurement length for benchmarks. An
// unparsable override fails the benchmark rather than silently running at
// the default horizon, which would report numbers for the wrong scale.
func benchHorizon(b *testing.B, def time.Duration) time.Duration {
	if s := os.Getenv("BADABING_BENCH_HORIZON"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			b.Fatalf("invalid BADABING_BENCH_HORIZON %q: %v (want a Go duration like 90s or 2m)", s, err)
		}
		return d
	}
	return def
}

func cfg(b *testing.B, def time.Duration) lab.RunConfig {
	return lab.RunConfig{Horizon: benchHorizon(b, def), Seed: 1}
}

// reportRow emits estimate-vs-truth metrics for a tool row.
func reportLoss(b *testing.B, name string, est, truth float64) {
	b.Helper()
	if truth > 0 {
		rel := est/truth - 1
		if rel < 0 {
			rel = -rel
		}
		b.ReportMetric(rel, name+"-relerr")
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Table1(cfg(b, 120*time.Second))
		truth := res.Rows[0]
		reportLoss(b, "zing10hz-freq", res.Rows[1].Frequency, truth.Frequency)
		reportLoss(b, "zing20hz-freq", res.Rows[2].Frequency, truth.Frequency)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Table2(cfg(b, 180*time.Second))
		truth := res.Rows[0]
		reportLoss(b, "zing10hz-freq", res.Rows[1].Frequency, truth.Frequency)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Table3(cfg(b, 120*time.Second))
		truth := res.Rows[0]
		reportLoss(b, "zing10hz-freq", res.Rows[1].Frequency, truth.Frequency)
	}
}

func benchSweep(b *testing.B, run func(lab.RunConfig) lab.SweepTable, horizon time.Duration) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := run(cfg(b, horizon))
		var freqErr, durErr float64
		n := 0
		for _, r := range res.Rows {
			if r.P < 0.3 || r.TrueF == 0 || r.TrueD == 0 {
				continue
			}
			fe := r.EstF/r.TrueF - 1
			if fe < 0 {
				fe = -fe
			}
			de := r.EstD/r.TrueD - 1
			if de < 0 {
				de = -de
			}
			freqErr += fe
			durErr += de
			n++
		}
		if n > 0 {
			b.ReportMetric(freqErr/float64(n), "freq-relerr")
			b.ReportMetric(durErr/float64(n), "dur-relerr")
		}
	}
}

func BenchmarkTable4(b *testing.B) { benchSweep(b, lab.Table4, 180*time.Second) }
func BenchmarkTable5(b *testing.B) { benchSweep(b, lab.Table5, 180*time.Second) }
func BenchmarkTable6(b *testing.B) { benchSweep(b, lab.Table6, 120*time.Second) }

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Table7(cfg(b, 90*time.Second))
		r := res.Rows[len(res.Rows)-1]
		reportLoss(b, "freq", r.EstF, r.TrueF)
		reportLoss(b, "dur", r.EstD, r.TrueD)
	}
}

func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Table8(cfg(b, 150*time.Second))
		// Row order: CBR badabing, CBR zing, web badabing, web zing.
		reportLoss(b, "badabing-dur", res.Rows[0].EstD, res.Rows[0].TrueD)
		reportLoss(b, "zing-dur", res.Rows[1].EstD, res.Rows[1].TrueD)
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Figure4(cfg(b, 20*time.Second))
		b.ReportMetric(float64(len(res.Episodes)), "episodes")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Figure5(cfg(b, 40*time.Second))
		b.ReportMetric(float64(len(res.Episodes)), "episodes")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Figure6(cfg(b, 60*time.Second))
		b.ReportMetric(float64(len(res.Episodes)), "episodes")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Figure7(cfg(b, 40*time.Second))
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		b.ReportMetric(first.PNoCBR, "cbr-miss-1pkt")
		b.ReportMetric(last.PNoCBR, "cbr-miss-10pkt")
		b.ReportMetric(first.PNoTCP, "tcp-miss-1pkt")
		b.ReportMetric(last.PNoTCP, "tcp-miss-10pkt")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Figure8(cfg(b, 15*time.Second))
		v := res.Variants[2] // 10-packet trains
		if v.ProbePkts > 0 {
			b.ReportMetric(float64(v.ProbeLost)/float64(v.ProbePkts), "10pkt-probe-lossrate")
		}
	}
}

func BenchmarkFigure9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Figure9a(cfg(b, 120*time.Second))
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.EstF[0], "freq-alpha005")
		b.ReportMetric(last.EstF[2], "freq-alpha020")
	}
}

func BenchmarkFigure9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.Figure9b(cfg(b, 120*time.Second))
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.EstF[0], "freq-tau20")
		b.ReportMetric(last.EstF[2], "freq-tau80")
	}
}

func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.AblationPlacement(cfg(b, 150*time.Second))
		b.ReportMetric(lab.MeanFreqError(res.Rows[:1]), "bernoulli-freq-relerr")
		b.ReportMetric(lab.MeanFreqError(res.Rows[1:]), "poisson-freq-relerr")
	}
}

func BenchmarkAblationMarking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.AblationMarking(cfg(b, 150*time.Second))
		b.ReportMetric(lab.MeanFreqError(res.Rows[:1]), "delay-freq-relerr")
		b.ReportMetric(lab.MeanFreqError(res.Rows[1:]), "lossonly-freq-relerr")
	}
}

func BenchmarkAblationEstimator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.AblationEstimator(cfg(b, 150*time.Second))
		for _, r := range res.Rows {
			if r.TrueD > 0 {
				rel := r.EstD/r.TrueD - 1
				if rel < 0 {
					rel = -rel
				}
				name := "basic-dur-relerr"
				if r.Variant[0] == 'i' {
					name = "improved-dur-relerr"
				}
				b.ReportMetric(rel, name)
			}
		}
	}
}

func BenchmarkAblationSlot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.AblationSlot(cfg(b, 120*time.Second))
		b.ReportMetric(res.Rows[0].EstD, "dur-1ms-slot")
		b.ReportMetric(res.Rows[2].EstD, "dur-20ms-slot")
	}
}

func BenchmarkAblationProbeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.AblationProbeSize(cfg(b, 150*time.Second))
		b.ReportMetric(res.Rows[0].EstF, "freq-1pkt")
		b.ReportMetric(res.Rows[1].EstF, "freq-3pkt")
	}
}

func BenchmarkAblationExtendedPairs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.AblationExtendedPairs(cfg(b, 150*time.Second))
		for _, r := range res.Rows {
			if r.TrueD > 0 {
				rel := r.EstD/r.TrueD - 1
				if rel < 0 {
					rel = -rel
				}
				name := "pairsoff-dur-relerr"
				if r.Variant != "pairs off" {
					name = "pairson-dur-relerr"
				}
				b.ReportMetric(rel, name)
			}
		}
	}
}

func BenchmarkMultiHop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.MultiHop(3, cfg(b, 120*time.Second))
		if res.TrueF > 0 {
			rel := res.EstF/res.TrueF - 1
			if rel < 0 {
				rel = -rel
			}
			b.ReportMetric(rel, "union-freq-relerr")
		}
	}
}

func BenchmarkSeedStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.SeedStudy(lab.CBRUniform, 0.5, []int64{1, 2, 3}, cfg(b, 120*time.Second))
		b.ReportMetric(res.RelDurErr.Mean(), "dur-relerr-mean")
		b.ReportMetric(res.RelDurErr.StdDev(), "dur-relerr-sd")
	}
}

func BenchmarkREDStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.RED(cfg(b, 90*time.Second))
		for _, r := range res.Rows {
			if r.TrueF > 0 {
				rel := r.EstF/r.TrueF - 1
				if rel < 0 {
					rel = -rel
				}
				name := "droptail-freq-relerr"
				if r.Queue == "RED" {
					name = "red-freq-relerr"
				}
				b.ReportMetric(rel, name)
			}
		}
	}
}
