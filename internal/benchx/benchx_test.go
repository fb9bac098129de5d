package benchx

import (
	"testing"
	"time"

	"badabing/internal/estimate"
)

// tinyOpts keeps the stages' own test fast: the test checks that every
// figure perfbench reads is populated and coherent, not the numbers
// themselves.
func tinyOpts() Options {
	return Options{
		Short:           true,
		Seed:            7,
		ReflectorWindow: 150 * time.Millisecond,
	}
}

func TestStagesReportEveryRow(t *testing.T) {
	rb, err := RunReflectorBench(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rb.BatchPPS <= 0 || rb.SinglePPS <= 0 || rb.Shards < 1 {
		t.Errorf("reflector throughput not measured: %+v", rb)
	}

	ebs, err := RunEstimatorBench(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ebs) != len(estimate.Kinds()) {
		t.Errorf("estimator stage measured %d kinds, want %d", len(ebs), len(estimate.Kinds()))
	}
	for _, eb := range ebs {
		if eb.Observes == 0 || eb.NsPerObserve <= 0 {
			t.Errorf("estimator %s not measured: %+v", eb.Kind, eb)
		}
	}

	mb, err := RunMetricsBench(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if mb.Families == 0 || mb.Samples == 0 || mb.Renders == 0 || mb.NsPerRender <= 0 || mb.AllocsPerRender <= 0 {
		t.Errorf("metrics stage empty: %+v", mb)
	}
}
