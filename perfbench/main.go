// Command perfbench is the repository's end-to-end benchmark. It drives
// badabing through its public packages on one of three seeded workloads
// and prints every metric by name and unit, then one JSON result line:
//
//	lab-sweep      paper cells (Tables 1, 4, 6) on a runner.Pool
//	daemon-idle    the daemon assembled in process, idle sessions over HTTP
//	wire-loopback  live wire sessions against an in-process reflector
//
// With --trace 0 it reports the end-to-end metrics of the workload, with
// tracing off. With --trace 1 it runs the workload untraced and traced
// (the difference is the tracing overhead), runs the other two workloads
// traced for half as long, runs the per-layer stages, and reports every
// per-layer metric; the spans go to .bench_build/spans/.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload lab-sweep --seed 1 --seconds 25 --trace 0
//
// The exit status is non-zero when an output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workers is the concurrency of the daemon's session pool, the wire
// reflector's shards and the lab's worker-count check: nproc on the
// 2-CPU host the benchmark is sized for, and never more.
func workers() int { return min(2, runtime.NumCPU()) }

// spanDir is where the traced run writes its spans, relative to the
// repository root.
var spanDir = filepath.Join(".bench_build", "spans")

// options are one workload run's inputs.
type options struct {
	seed    int64
	seconds time.Duration
	// tr is nil on untraced runs.
	tr *tracer
}

// value is one reported metric. N is the sample count behind it (0 for
// a single measurement); Note says which statistic it is.
type value struct {
	Name string
	Unit string
	V    float64
	N    int
	Note string
}

// report is one workload run's outcome.
type report struct {
	Workload  string
	E2E       []value
	Layer     []value
	Attempted int64
	Failed    int64
	// Checks lists the output checks that failed.
	Checks []string
	// Info lines are printed with the report (digests, mixes).
	Info []string
}

func (r *report) e2e(name, unit string, v float64, n int, note string) {
	r.E2E = append(r.E2E, value{name, unit, v, n, note})
}

func (r *report) layer(name, unit string, v float64, n int, note string) {
	r.Layer = append(r.Layer, value{name, unit, v, n, note})
}

// check counts one output check, recording it as failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

// infof adds a report line.
func (r *report) infof(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// workloads maps names to runners, in the order "all" runs them.
var workloads = []struct {
	name string
	run  func(ctx context.Context, o options) (*report, error)
}{
	{"lab-sweep", runLabSweep},
	{"daemon-idle", runDaemonIdle},
	{"wire-loopback", runWireLoopback},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "lab-sweep, daemon-idle, wire-loopback or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured duration of one run")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *workload == w.name || *workload == "all" {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	status := 0
	for _, name := range names {
		var res result
		var err error
		if *traceFlag == 1 {
			res, err = tracedRun(name, o, out)
		} else {
			res, err = plainRun(name, o, out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(out, string(line))
		if !res.Correct {
			status = 1
		}
	}
	return status
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runNamed(name string, o options) (*report, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run(context.Background(), o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// plainRun measures the workload's end-to-end metrics with tracing off.
func plainRun(name string, o options, out io.Writer) (result, error) {
	rep, err := runNamed(name, o)
	if err != nil {
		return result{}, err
	}
	printReport(out, rep, rep.E2E)
	return resultOf([]*report{rep}, rep.E2E), nil
}

// tracedRun measures the per-layer stages, the workload untraced and
// traced (their difference is the tracing overhead), and the other
// workloads traced at half length, and reports every per-layer metric.
func tracedRun(name string, o options, out io.Writer) (result, error) {
	tr := newTracer()
	traced := o
	traced.tr = tr
	// The stages run first, before any workload has started goroutines
	// that could allocate while they take Mallocs deltas.
	stages, err := runStages(context.Background(), traced)
	if err != nil {
		return result{}, err
	}
	base, err := runNamed(name, o)
	if err != nil {
		return result{}, err
	}
	primary, err := runNamed(name, traced)
	if err != nil {
		return result{}, err
	}
	reps := []*report{base, primary}
	overhead := &report{Workload: name + " (untraced vs traced run)"}
	overhead.layer("failed_frac", "ratio", float64(base.Failed)/float64(max(base.Attempted, 1)), int(base.Attempted),
		"failed / attempted in the untraced run")
	for i, v := range primary.E2E {
		b := base.E2E[i]
		rel := 0.0
		if b.V != 0 {
			rel = v.V/b.V - 1
		}
		overhead.layer("trace.overhead."+v.Name, "ratio", rel, 0,
			fmt.Sprintf("traced %.6g vs untraced %.6g %s", v.V, b.V, v.Unit))
	}
	half := traced
	half.seconds = o.seconds / 2
	for _, w := range workloads {
		if w.name == name {
			continue
		}
		rep, err := runNamed(w.name, half)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, rep)
	}
	reps = append(reps, stages, overhead)

	var layer []value
	for _, rep := range reps[1:] {
		layer = append(layer, rep.Layer...)
	}
	sort.SliceStable(layer, func(i, j int) bool { return layer[i].Name < layer[j].Name })
	for _, rep := range reps[1:] {
		printReport(out, rep, rep.Layer)
	}
	fmt.Fprintln(out, "== spans (self time = span minus the part its children cover)")
	tr.printSummary(out)
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, o.seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return resultOf(reps, layer), nil
}

func resultOf(reps []*report, vals []value) result {
	res := result{Correct: true, Metrics: make(map[string]metric, len(vals))}
	for _, rep := range reps {
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		if len(rep.Checks) > 0 {
			res.Correct = false
		}
	}
	res.Attempted = max(res.Attempted, 1)
	for _, v := range vals {
		res.Metrics[v.Name] = metric{Value: v.V, Unit: v.Unit}
	}
	return res
}

func printReport(w io.Writer, rep *report, vals []value) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d\n", rep.Workload, rep.Attempted, rep.Failed)
	for _, line := range rep.Info {
		fmt.Fprintf(w, "   %s\n", line)
	}
	for _, c := range rep.Checks {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", c)
	}
	for _, v := range vals {
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Fprintf(w, "   %-34s %14.6g %-6s %-9s %s\n", v.Name, v.V, v.Unit, n, v.Note)
	}
}
