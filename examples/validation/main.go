// Validation: BADABING's self-calibration (§5.4, §7). Two measurements of
// the same kind are run:
//
//  1. a well-behaved path whose loss episodes satisfy the model's
//     assumptions — validation passes and the estimates can be trusted;
//  2. a pathological path whose congestion flaps on and off at the probe
//     discretization itself (episodes no longer than a slot, separated by
//     single clear slots) — 010/101 outcomes pile up and the tool
//     *reports its own estimates as untrustworthy* instead of silently
//     misleading (§7: the discretization must be finer than the episodes
//     being measured).
//
// It also demonstrates the open-ended mode: probing continues until the
// validation criteria and the §7 reliability bound are met.
//
// Run with:
//
//	go run ./examples/validation
package main

import (
	"fmt"
	"log"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/probe"
	"badabing/internal/session"
	"badabing/internal/simnet"
	"badabing/internal/traffic"
)

func wellBehaved() {
	const p = 0.5
	slot := badabing.DefaultSlot
	horizon := 600 * time.Second

	sim := simnet.New()
	d := simnet.NewDumbbell(sim, simnet.DumbbellConfig{})
	ids := traffic.NewIDSpace(1000)
	traffic.NewEpisodeInjector(sim, d, ids, traffic.EpisodeInjectorConfig{
		Durations:       []time.Duration{100 * time.Millisecond},
		MeanSpacing:     8 * time.Second,
		Overload:        4,
		BaseUtilization: 0.25,
	})
	plans := badabing.MustSchedule(badabing.ScheduleConfig{
		P: p, N: int64(horizon / slot), Improved: true, Seed: 8,
	})
	bb := startProbes(sim, d, plans)
	sim.Run(horizon + time.Second)
	show("well-behaved path (≈100ms episodes every ≈8s)", estimates(bb, plans, badabing.RecommendedMarker(p, slot)))
}

// startProbes sends the schedule's probes over the simulated path.
func startProbes(sim *simnet.Sim, d *simnet.Dumbbell, plans []badabing.Plan) *probe.Badabing {
	return probe.StartBadabing(sim, d.Bottleneck, d.FwdDemux, 7, probe.BadabingConfig{}, badabing.ProbeSlots(plans))
}

// estimates marks the probes' observations so far and replays the
// schedule through the batch estimator: the pipeline a live session runs,
// in batch form. Experiments with probes not yet sent are skipped.
func estimates(bb *probe.Badabing, plans []badabing.Plan, marker badabing.MarkerConfig) badabing.Estimates {
	bySlot := session.MarkSlots(bb.Observations(), nil, marker)
	snap, _, err := estimate.Batch(estimate.Config{}, badabing.StreamConfig{}, plans, bySlot)
	if err != nil {
		log.Fatal(err)
	}
	return snap.Total
}

// pathological drives a path whose congestion alternates at the slot
// period itself: a small 5 ms buffer is slammed full every 10 ms during
// flap phases, so congested and clear slots interleave 1:1 — exactly the
// structure the 010/101 check exists to catch.
func pathological() {
	const p = 0.5
	slot := badabing.DefaultSlot
	horizon := 600 * time.Second

	sim := simnet.New()
	d := simnet.NewDumbbell(sim, simnet.DumbbellConfig{
		QueueDuration: 5 * time.Millisecond,
	})
	// Flapper: every 2 s, a 400 ms phase of one queue-slamming burst
	// per 10 ms.
	qBytes := d.Bottleneck.QueueCap()
	burst := func(at time.Duration) {
		sim.ScheduleAt(at, func() {
			// Dump 2× the queue in 1500-byte packets: the buffer
			// is full (dropping) for ≈5 ms, then drains clear.
			n := 2 * qBytes / 1500
			for i := 0; i < n; i++ {
				d.Bottleneck.Send(&simnet.Packet{
					ID: sim.NextPacketID(), Flow: 999,
					Kind: simnet.Data, Size: 1500, Sent: at,
				})
			}
		})
	}
	for phase := time.Second; phase < horizon; phase += 2 * time.Second {
		for off := time.Duration(0); off < 400*time.Millisecond; off += 10 * time.Millisecond {
			burst(phase + off)
		}
	}

	plans := badabing.MustSchedule(badabing.ScheduleConfig{
		P: p, N: int64(horizon / slot), Improved: true, Seed: 3,
	})
	bb := startProbes(sim, d, plans)
	sim.Run(horizon + time.Second)
	// Loss-only marking: delay thresholds would only blur the sub-slot
	// structure this scenario is about.
	lossOnly := badabing.MarkerConfig{Alpha: 0, Tau: 0}
	show("pathological path (congestion flapping at the slot period)", estimates(bb, plans, lossOnly))
}

func show(name string, rep badabing.Estimates) {
	v := rep.Validation
	fmt.Printf("-- %s\n", name)
	fmt.Printf("   frequency %.4f, duration %.3fs over %d experiments\n",
		rep.Frequency, rep.Duration, rep.M)
	fmt.Printf("   01/10 = %d/%d (asymmetry %.2f), 010/101 violations = %d (rate %.2f)\n",
		v.C01, v.C10, v.BoundaryAsymmetry, v.Violations, v.ViolationRate)
	if v.Passes(badabing.Criteria{}) {
		fmt.Println("   => validation PASSED: estimates are trustworthy")
	} else {
		fmt.Println("   => validation FAILED: reject these estimates (self-calibration, §5.4)")
	}
	fmt.Println()
}

func monitorDemo() {
	// Open-ended measurement: consult the validation criteria and the
	// §7 reliability bound periodically, stop as soon as they hold —
	// the "report when validation confirms the estimation is robust"
	// mode, instead of a fixed-length run.
	slot := badabing.DefaultSlot
	budget := 1800 * time.Second
	sim := simnet.New()
	d := simnet.NewDumbbell(sim, simnet.DumbbellConfig{})
	ids := traffic.NewIDSpace(1000)
	traffic.NewEpisodeInjector(sim, d, ids, traffic.EpisodeInjectorConfig{
		Durations:       []time.Duration{100 * time.Millisecond},
		MeanSpacing:     8 * time.Second,
		Overload:        4,
		BaseUtilization: 0.25,
	})
	plans := badabing.MustSchedule(badabing.ScheduleConfig{
		P: 0.3, N: int64(budget / slot), Improved: true, Seed: 9,
	})
	bb := startProbes(sim, d, plans)
	marker := badabing.RecommendedMarker(0.3, slot)
	stop := badabing.MonitorConfig{MinExperiments: 2000, MaxDurationStdDev: 0.05}

	var stoppedAt time.Duration
	var check func()
	check = func() {
		if stop.Converged(estimates(bb, plans, marker)) {
			stoppedAt = sim.Now()
			return
		}
		if sim.Now() < budget {
			sim.Schedule(30*time.Second, check)
		}
	}
	sim.Schedule(60*time.Second, check)
	sim.Run(budget + time.Second)

	rep := estimates(bb, plans, marker)
	fmt.Println("-- open-ended monitoring with a stopping rule")
	if stoppedAt > 0 {
		fmt.Printf("   converged after %v of probing (budget %v)\n", stoppedAt, budget)
	} else {
		fmt.Printf("   did not converge within %v\n", budget)
	}
	fmt.Printf("   frequency %.4f, duration %.3fs ± %.3fs over %d experiments\n",
		rep.Frequency, rep.Duration, rep.StdDev, rep.M)
}

func main() {
	wellBehaved()
	pathological()
	monitorDemo()
}
