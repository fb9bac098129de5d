package benchx

import (
	"encoding/json"
	"testing"
	"time"
)

// tinyOpts keeps the harness's own test fast: the test checks that every
// report section is populated and coherent, not the numbers themselves.
func tinyOpts() Options {
	return Options{
		Short:           true,
		Seed:            7,
		ReflectorWindow: 150 * time.Millisecond,
	}
}

func TestRunAllProducesCoherentReport(t *testing.T) {
	rep, err := RunAll(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, Schema)
	}
	if rep.Reflector.BatchPPS <= 0 || rep.Reflector.SinglePPS <= 0 {
		t.Errorf("reflector throughput not measured: %+v", rep.Reflector)
	}
	if rep.Reflector.Speedup <= 0 {
		t.Errorf("speedup not computed: %+v", rep.Reflector)
	}

	if m := rep.Metrics; m == nil {
		t.Error("metrics stage missing from report")
	} else {
		if m.Families == 0 || m.Samples == 0 || m.NsPerRender <= 0 || m.BytesPerRender == 0 {
			t.Errorf("metrics stage empty: %+v", m)
		}
		if m.CounterIncAllocs != 0 || m.HistObserveAllocs != 0 {
			t.Errorf("instrument updates allocate (inc %.3f, observe %.3f), want 0", m.CounterIncAllocs, m.HistObserveAllocs)
		}
	}

	// The report must round-trip through its wire format.
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != rep.Schema || back.Reflector != rep.Reflector || len(back.Estimators) != len(rep.Estimators) {
		t.Fatalf("report did not survive JSON round trip")
	}
}
