// Pathselect: use BADABING to rank candidate overlay paths by their loss
// characteristics — the paper's motivating application ("path selection in
// peer-to-peer overlay networks", §1).
//
// Three simulated paths carry different congestion regimes:
//
//   - path A: lightly loaded web traffic (rare, short episodes)
//   - path B: heavy web traffic with frequent surges
//   - path C: CBR with long engineered episodes
//
// Each path is measured with an identical low-impact BADABING session and
// the paths are ranked by estimated episode frequency × duration (the
// expected fraction of time a flow would encounter congestion).
//
// Run with:
//
//	go run ./examples/pathselect
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/capture"
	"badabing/internal/probe"
	"badabing/internal/session"
	"badabing/internal/session/simtransport"
	"badabing/internal/simnet"
	"badabing/internal/traffic"
)

type pathResult struct {
	name   string
	truthF float64
	est    badabing.Estimates
}

// badness is the path-selection score: expected congestion exposure, the
// fraction of time a flow would find the path congested.
func (r pathResult) badness() float64 { return r.est.Frequency }

func measure(name string, build func(sim *simnet.Sim, d *simnet.Dumbbell, ids *traffic.IDSpace)) pathResult {
	const (
		p       = 0.3
		horizon = 300 * time.Second
	)
	slot := badabing.DefaultSlot
	sim := simnet.New()
	d := simnet.NewDumbbell(sim, simnet.DumbbellConfig{})
	mon := capture.Attach(sim, d.Bottleneck, capture.Config{})
	ids := traffic.NewIDSpace(1000)
	build(sim, d, ids)

	tr := simtransport.New(sim, d, 7, probe.BadabingConfig{Slot: slot})
	res, err := session.Run(context.Background(), tr, session.Config{
		P: p, Slots: int64(horizon / slot), Slot: slot, Improved: true, Seed: 7,
		StepSlots: int64(horizon / slot), // one harvest: no mid-run snapshots are read
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return pathResult{
		name:   name,
		truthF: mon.Truth(horizon, slot).Frequency,
		est:    res.Final.Snapshot.Total,
	}
}

func main() {
	results := []pathResult{
		measure("path A (light web)", func(sim *simnet.Sim, d *simnet.Dumbbell, ids *traffic.IDSpace) {
			traffic.NewWeb(sim, d, ids, traffic.WebConfig{
				SessionRate:   10,
				SurgeSpacing:  90 * time.Second,
				SurgeSessions: 120,
				Seed:          1,
			})
		}),
		measure("path B (heavy web)", func(sim *simnet.Sim, d *simnet.Dumbbell, ids *traffic.IDSpace) {
			traffic.NewWeb(sim, d, ids, traffic.WebConfig{
				SessionRate:   40,
				SurgeSpacing:  12 * time.Second,
				SurgeSessions: 400,
				Seed:          2,
			})
		}),
		measure("path C (CBR episodes)", func(sim *simnet.Sim, d *simnet.Dumbbell, ids *traffic.IDSpace) {
			traffic.NewEpisodeInjector(sim, d, ids, traffic.EpisodeInjectorConfig{
				Durations:       []time.Duration{150 * time.Millisecond},
				MeanSpacing:     5 * time.Second,
				Overload:        4,
				BaseUtilization: 0.25,
				Seed:            3,
			})
		}),
	}

	sort.Slice(results, func(i, j int) bool { return results[i].badness() < results[j].badness() })

	fmt.Println("overlay path selection by measured loss characteristics")
	fmt.Printf("%-24s %12s %12s %12s %10s\n",
		"path (best first)", "est freq", "true freq", "est dur", "validated")
	for _, r := range results {
		dur := "n/a"
		if r.est.HasDuration {
			dur = fmt.Sprintf("%.3fs", r.est.Duration)
		}
		fmt.Printf("%-24s %12.4f %12.4f %12s %10v\n",
			r.name, r.est.Frequency, r.truthF, dur,
			r.est.Validation.Passes(badabing.Criteria{}))
	}
	fmt.Printf("\nselected: %s\n", results[0].name)
}
