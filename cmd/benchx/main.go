// Command benchx runs the wire hot-path benchmark harness and writes a
// machine-readable report (see internal/benchx). With -baseline it also
// acts as the CI regression gate: the run fails if the batched
// reflector's speedup over the single-packet baseline has regressed by
// more than -tolerance relative to the committed report.
//
// The gate compares the batch/single speedup ratio, not raw packets per
// second: absolute throughput tracks the machine (the committed baseline
// and a CI runner differ wildly), while the ratio isolates what this
// repo controls — how much the batched path buys over the portable one
// on the same box.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"badabing/internal/benchx"
)

func main() {
	var (
		out       = flag.String("out", "BENCH_6.json", "write the JSON report here ('-' for stdout)")
		short     = flag.Bool("short", false, "CI smoke sizes (~5s) instead of full workloads (~10s)")
		baseline  = flag.String("baseline", "", "committed report to gate against (empty: no gate)")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional speedup regression vs baseline")
	)
	flag.Parse()

	rep, err := benchx.RunAll(benchx.Options{Short: *short})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchx: %v\n", err)
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchx: encode: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchx: %v\n", err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "reflector: batch %.0f pps vs single %.0f pps (%.2fx, %d shards)\n",
		rep.Reflector.BatchPPS, rep.Reflector.SinglePPS, rep.Reflector.Speedup, rep.Reflector.Shards)
	for _, e := range rep.Estimators {
		fmt.Fprintf(os.Stderr, "estimator: %-10s %.0f ns/observe, %.3f allocs/observe (%d observes)\n",
			e.Kind, e.NsPerObserve, e.AllocsPerObserve, e.Observes)
	}
	if m := rep.Metrics; m != nil {
		fmt.Fprintf(os.Stderr, "metrics:   render %.0fµs / %.1f allocs (%d families, %d samples, %d B); inc %.3f, observe %.3f allocs\n",
			m.NsPerRender/1e3, m.AllocsPerRender, m.Families, m.Samples, m.BytesPerRender,
			m.CounterIncAllocs, m.HistObserveAllocs)
	}

	// The allocation pin is machine-independent, so it gates every run,
	// baseline or not: the basic and improved estimators' observe path
	// must stay off the heap (the bootstrap kind retains outcomes by
	// design and is exempt).
	for _, e := range rep.Estimators {
		if (e.Kind == "basic" || e.Kind == "improved") && e.AllocsPerObserve > 0 {
			fmt.Fprintf(os.Stderr, "benchx: REGRESSION: estimator %s allocates %.3f per observe, want 0\n",
				e.Kind, e.AllocsPerObserve)
			os.Exit(2)
		}
	}
	// Same machine-independent pin for the telemetry hot path: metric
	// updates on the serve/receive paths must never touch the heap.
	if m := rep.Metrics; m != nil && (m.CounterIncAllocs > 0 || m.HistObserveAllocs > 0) {
		fmt.Fprintf(os.Stderr, "benchx: REGRESSION: instrument updates allocate (inc %.3f, observe %.3f), want 0\n",
			m.CounterIncAllocs, m.HistObserveAllocs)
		os.Exit(2)
	}

	if *baseline == "" {
		return
	}
	base, err := loadReport(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchx: baseline: %v\n", err)
		os.Exit(1)
	}
	floor := base.Reflector.Speedup * (1 - *tolerance)
	if rep.Reflector.Speedup < floor {
		fmt.Fprintf(os.Stderr, "benchx: REGRESSION: speedup %.2fx below floor %.2fx (baseline %.2fx, tolerance %.0f%%)\n",
			rep.Reflector.Speedup, floor, base.Reflector.Speedup, *tolerance*100)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchx: gate ok: speedup %.2fx >= floor %.2fx (baseline %.2fx)\n",
		rep.Reflector.Speedup, floor, base.Reflector.Speedup)

	// Render allocations are pool-amortized and deterministic per
	// registry shape, so they gate as a count against the committed
	// baseline (+1 slack for pool warm-up jitter), not as wall time.
	if m, bm := rep.Metrics, base.Metrics; m != nil && bm != nil {
		ceiling := bm.AllocsPerRender*(1+*tolerance) + 1
		if m.AllocsPerRender > ceiling {
			fmt.Fprintf(os.Stderr, "benchx: REGRESSION: /metrics render allocates %.1f, ceiling %.1f (baseline %.1f)\n",
				m.AllocsPerRender, ceiling, bm.AllocsPerRender)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "benchx: gate ok: render allocs %.1f <= ceiling %.1f (baseline %.1f)\n",
			m.AllocsPerRender, ceiling, bm.AllocsPerRender)
	}
}

func loadReport(path string) (benchx.Report, error) {
	var rep benchx.Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != benchx.Schema {
		return rep, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, benchx.Schema)
	}
	return rep, nil
}
