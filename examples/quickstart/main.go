// Quickstart: measure loss-episode frequency and duration on a congested
// path with BADABING, and compare against ground truth.
//
// The path is the paper's testbed simulated in-process: an OC3 bottleneck
// with 100 ms of buffering and 50 ms of one-way delay, carrying CBR cross
// traffic with engineered ≈68 ms loss episodes every ≈10 s.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/capture"
	"badabing/internal/probe"
	"badabing/internal/session"
	"badabing/internal/session/simtransport"
	"badabing/internal/simnet"
	"badabing/internal/traffic"
)

func main() {
	const (
		p       = 0.3                  // probe probability per slot
		horizon = 900 * time.Second    // measurement length (the paper runs 15 min)
		slot    = badabing.DefaultSlot // 5 ms discretization
	)

	// Build the simulated path and attach the ground-truth monitor.
	sim := simnet.New()
	path := simnet.NewDumbbell(sim, simnet.DumbbellConfig{})
	monitor := capture.Attach(sim, path.Bottleneck, capture.Config{})

	// Cross traffic: constant-bit-rate load with loss episodes of
	// ≈68 ms at exponentially spaced intervals (the paper's Iperf
	// scenario).
	ids := traffic.NewIDSpace(1000)
	traffic.NewEpisodeInjector(sim, path, ids, traffic.EpisodeInjectorConfig{
		Durations:       []time.Duration{68 * time.Millisecond},
		MeanSpacing:     10 * time.Second,
		Overload:        4,
		BaseUtilization: 0.25,
	})

	// The measurement: the session engine draws the probe schedule,
	// sends the probes over the simulated path, marks congestion and
	// estimates, with the recommended §6.2 marking for p.
	tr := simtransport.New(sim, path, 7, probe.BadabingConfig{Slot: slot})
	res, err := session.Run(context.Background(), tr, session.Config{
		P:        p,
		Slots:    int64(horizon / slot),
		Slot:     slot,
		Improved: true,
		Seed:     7,
		// No mid-run snapshots are read, so harvest once at the end
		// instead of publishing one every 5 s of virtual time.
		StepSlots: int64(horizon / slot),
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	truth := monitor.Truth(horizon, slot)
	est := res.Final.Snapshot.Total

	fmt.Println("BADABING quickstart — CBR traffic with engineered loss episodes")
	fmt.Printf("probes: %d (%d experiments), ≈%.1f%% of bottleneck capacity\n",
		res.Probes, est.M,
		100*float64(res.Probes*3*600*8)/(horizon.Seconds()*float64(simnet.OC3)))
	fmt.Printf("%-22s %10s %12s\n", "", "true", "estimated")
	fmt.Printf("%-22s %10.4f %12.4f\n", "episode frequency", truth.Frequency, est.Frequency)
	fmt.Printf("%-22s %9.3fs %11.3fs\n", "episode duration", truth.Duration.Mean(), est.Duration)
	v := est.Validation
	fmt.Printf("validation: boundary counts %d/%d, violations %d — pass=%v\n",
		v.C01, v.C10, v.Violations, v.Passes(badabing.Criteria{}))
}
