package lab

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The golden suite pins the estimator pipeline's exact numerical outputs
// for a handful of fixed-seed cells. Any change to the simulator, the
// traffic models, the probers, or the estimators that shifts a single
// float will fail here — deliberate changes regenerate the fixtures with
//
//	go test ./internal/lab -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden fixtures under testdata/")

// goldenRow is one cell's pinned estimator output.
type goldenRow struct {
	Key   string  `json:"key"`
	TrueF float64 `json:"true_f"`
	EstF  float64 `json:"est_f"`
	TrueD float64 `json:"true_d"`
	EstD  float64 `json:"est_d"`
}

// goldenCells are deliberately cheap (45 s horizons) but cover both CBR
// episode shapes, three probe rates, and the TCP-driven scenarios (whose
// retransmission timers, delayed ACKs and jittered sends exercise the
// most event-core machinery), followed by pathCells.
func goldenCells() []goldenRow {
	specs := []struct {
		sc   Scenario
		p    float64
		seed int64
	}{
		{CBRUniform, 0.5, 1},
		{CBRUniform, 0.9, 2},
		{CBRMixed, 0.7, 3},
		{CBRMixed, 0.3, 1},
		{InfiniteTCP, 0.5, 1},
		{Web, 0.5, 2},
	}
	cells := make([]cell[goldenRow], len(specs))
	for i, s := range specs {
		key := fmt.Sprintf("golden/%v/p=%.1f/seed=%d", s.sc, s.p, s.seed)
		cells[i] = cell[goldenRow]{
			key: key,
			run: func() goldenRow {
				row := badabingRun(s.sc, RunConfig{Horizon: 45 * time.Second, Seed: s.seed}, s.p, nil, false)
				return goldenRow{Key: key, TrueF: row.TrueF, EstF: row.EstF, TrueD: row.TrueD, EstD: row.EstD}
			},
		}
	}
	return append(runCells(RunConfig{}, cells), pathCells()...)
}

// pathCells pins the lab paths the sweep cells above never reach, at the
// same 45 s horizon: hand-built Poisson-pair schedules, the §5.5
// extended pairs on the improved design, a RED bottleneck and a
// two-hop chain.
func pathCells() []goldenRow {
	cfg := RunConfig{Horizon: 45 * time.Second, Seed: 1}
	var rows []goldenRow
	add := func(key string, trueF, estF, trueD, estD float64) {
		rows = append(rows, goldenRow{Key: "golden/" + key, TrueF: trueF, EstF: estF, TrueD: trueD, EstD: estD})
	}
	for _, res := range []AblationResult{AblationPlacement(cfg), AblationExtendedPairs(cfg)} {
		for _, r := range res.Rows {
			add(res.Title+"/"+r.Variant, r.TrueF, r.EstF, r.TrueD, r.EstD)
		}
	}
	for _, r := range RED(cfg).Rows {
		add("RED/"+r.Queue, r.TrueF, r.EstF, r.TrueD, r.EstD)
	}
	mh := MultiHop(2, cfg)
	add("multihop/hops=2", mh.TrueF, mh.EstF, mh.TrueD, mh.EstD)
	return rows
}

func TestGoldenEstimates(t *testing.T) {
	got := goldenCells()
	path := filepath.Join("testdata", "golden", "estimates.json")

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cells", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update): %v", err)
	}
	var want []goldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden fixture %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d cells, suite produced %d (regenerate with -update)", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Key != g.Key {
			t.Errorf("cell %d key drifted: fixture %q, suite %q", i, w.Key, g.Key)
			continue
		}
		check := func(field string, wv, gv float64) {
			if math.Float64bits(wv) != math.Float64bits(gv) {
				t.Errorf("%s: %s drifted from golden %v to %v (intentional? rerun with -update)",
					g.Key, field, wv, gv)
			}
		}
		check("true_f", w.TrueF, g.TrueF)
		check("est_f", w.EstF, g.EstF)
		check("true_d", w.TrueD, g.TrueD)
		check("est_d", w.EstD, g.EstD)
	}
}

// TestGoldenFixtureRoundTrips guards the fixture encoding itself: every
// float64 written by -update must parse back to the identical bits, or
// the drift detector would false-positive.
func TestGoldenFixtureRoundTrips(t *testing.T) {
	in := []goldenRow{{Key: "k", TrueF: 1.0 / 3.0, EstF: 0.1, TrueD: 0.068, EstD: math.Nextafter(0.068, 1)}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenRow
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]float64{
		{in[0].TrueF, out[0].TrueF}, {in[0].EstF, out[0].EstF},
		{in[0].TrueD, out[0].TrueD}, {in[0].EstD, out[0].EstD},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("float64 %v did not round-trip through JSON", pair[0])
		}
	}
}
