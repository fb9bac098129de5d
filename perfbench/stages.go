package main

import (
	"context"
	"fmt"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/benchx"
	"badabing/internal/lab"
	"badabing/internal/probe"
	"badabing/internal/session"
	"badabing/internal/session/simtransport"
	"badabing/internal/simnet"
	"badabing/internal/wire"
)

// probeFlow is the flow id the benchmark's simulated probes use; the
// lab's cross traffic allocates ids well above it.
const probeFlow = 7

// idleSessionSlots sizes the per-layer idle-path session: the daemon-idle
// mix's 20 000-slot class, at its 200-slot harvest cadence.
const (
	idleSessionSlots = 20_000
	idleStepSlots    = 200
)

// runStages measures the per-layer metrics no workload run isolates, one
// call at a time on this goroutine (so Mallocs deltas are attributable):
// a traced cell per lab scenario built as lab.NewPath -> simtransport.New
// -> session.Run, an idle-path session through a timed transport, the
// codec, and the benchx reflector, estimator and /metrics stages.
func runStages(ctx context.Context, o options) (*report, error) {
	rep := &report{Workload: "per-layer stages"}
	seed := o.seed
	if seed == 0 {
		seed = -1
	}
	var newPath, truth []time.Duration
	for _, sc := range []struct {
		name string
		sc   lab.Scenario
	}{{"cbr", lab.CBRUniform}, {"tcp", lab.InfiniteTCP}, {"web", lab.Web}} {
		r, err := tracedCell(ctx, sc.sc, seed, o.tr)
		if err != nil {
			return nil, fmt.Errorf("traced %s cell: %w", sc.name, err)
		}
		newPath = append(newPath, r.newPath)
		truth = append(truth, r.truth)
		rep.layer("simnet.ns_per_pkt."+sc.name, "ns", float64(r.advance)/float64(r.arrived), int(r.arrived),
			"time in AdvanceTo / bottleneck arrivals")
		rep.layer("simnet.allocs_per_pkt."+sc.name, "count", float64(r.allocs)/float64(r.arrived), int(r.arrived),
			"Mallocs in AdvanceTo / bottleneck arrivals, 1 worker")
		rep.check(r.probes > 0, "traced %s cell sent no probes", sc.name)
	}
	rep.layer("lab.newpath_ms", "ms", median(durationsMs(newPath)), len(newPath), "median lab.NewPath over the 3 scenarios")
	rep.layer("capture.truth_ms", "ms", median(durationsMs(truth)), len(truth), "median Monitor.Truth over the 3 scenarios")

	if err := idleSessionStage(ctx, rep, seed, o.tr); err != nil {
		return nil, err
	}
	codecStage(rep, o.tr)

	bo := benchx.Options{Short: true, Seed: seed, ReflectorWindow: 250 * time.Millisecond}
	sp := o.tr.begin("benchx.RunReflectorBench", spanRef{})
	rb, err := benchx.RunReflectorBench(bo)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("reflector stage: %w", err)
	}
	rep.layer("wire.reflector_pps.batch", "1/s", rb.BatchPPS, 0, fmt.Sprintf("best of 3, %d shards", rb.Shards))
	rep.layer("wire.reflector_pps.single", "1/s", rb.SinglePPS, 0, "best of 3, 1 shard")

	sp = o.tr.begin("benchx.RunEstimatorBench", spanRef{})
	ebs, err := benchx.RunEstimatorBench(bo)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("estimator stage: %w", err)
	}
	for _, eb := range ebs {
		rep.layer("estimate.observe_ns."+eb.Kind, "ns", eb.NsPerObserve, eb.Observes,
			fmt.Sprintf("%.3g allocs/observe", eb.AllocsPerObserve))
	}

	sp = o.tr.begin("benchx.RunMetricsBench", spanRef{})
	mb, err := benchx.RunMetricsBench(bo)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("metrics stage: %w", err)
	}
	rep.layer("obs.render_us", "us", mb.NsPerRender/1e3, mb.Renders,
		fmt.Sprintf("%d families, %d samples", mb.Families, mb.Samples))
	rep.layer("obs.render_allocs", "count", mb.AllocsPerRender, mb.Renders, "allocations per render")
	return rep, nil
}

// cellResult is one traced lab cell's boundary measurements.
type cellResult struct {
	newPath, truth, advance time.Duration
	arrived, allocs         uint64
	probes                  int
}

// tracedCell builds a lab testbed and measures one BADABING session on
// it through a timed transport.
func tracedCell(ctx context.Context, sc lab.Scenario, seed int64, tr *tracer) (cellResult, error) {
	var r cellResult
	root := tr.begin("stage.cell", spanRef{})
	defer root.end()

	sp := tr.begin("lab.NewPath", root)
	start := time.Now()
	p := lab.NewPath(sc, lab.RunConfig{Horizon: labHorizon, Seed: seed})
	r.newPath = time.Since(start)
	sp.end()

	slot := badabing.DefaultSlot
	tt := &timedTransport{
		inner:       simtransport.New(p.Sim, p.D, probeFlow, probe.BadabingConfig{Slot: slot}),
		tr:          tr,
		countAllocs: true,
	}
	sp = tr.begin("session.Run", root)
	tt.parent = sp
	res, err := session.Run(ctx, tt, session.Config{
		P: 0.3, Slots: int64(labHorizon / slot), Slot: slot, Improved: true, Seed: seed + 100,
	}, nil)
	arrived, _, _ := p.D.Bottleneck.Stats()
	sp.endN(int64(arrived))
	if err != nil {
		return r, err
	}
	r.advance, r.allocs, r.arrived, r.probes = tt.advance, tt.advanceAllocs, arrived, res.Probes

	sp = tr.begin("capture.Truth", root)
	start = time.Now()
	p.Mon.Truth(labHorizon, slot)
	r.truth = time.Since(start)
	sp.end()
	return r, nil
}

// idleSessionStage runs one idle-path session (the daemon's "idle"
// scenario, built the same way) through a timed transport and reports
// the session engine's own cost per harvest step and per probe.
func idleSessionStage(ctx context.Context, rep *report, seed int64, tr *tracer) error {
	root := tr.begin("stage.idle_session", spanRef{})
	defer root.end()
	sim := simnet.New()
	d := simnet.NewDumbbell(sim, simnet.DumbbellConfig{})
	slot := badabing.DefaultSlot
	tt := &timedTransport{
		inner:       simtransport.New(sim, d, probeFlow, probe.BadabingConfig{Slot: slot}),
		tr:          tr,
		countAllocs: true,
	}
	cfg := session.Config{
		P: 0.3, Slots: idleSessionSlots, Slot: slot, Improved: true, Seed: seed,
		WindowSlots: idleSessionSlots / 4, StepSlots: idleStepSlots,
	}
	sp := tr.begin("session.Run", root)
	tt.parent = sp
	m0 := mallocs()
	start := time.Now()
	res, err := session.Run(ctx, tt, cfg, nil)
	total := time.Since(start)
	runAllocs := mallocs() - m0
	sp.end()
	if err != nil {
		return fmt.Errorf("idle session: %w", err)
	}
	steps := tt.advanceCalls
	harvest := total - tt.inTransport()
	rep.check(res.Final.Counters.ProbesLost == 0, "idle session lost %d probes", res.Final.Counters.ProbesLost)
	rep.layer("session.steps", "count", float64(steps), 0, fmt.Sprintf("%d-slot idle session, step %d", idleSessionSlots, idleStepSlots))
	rep.layer("session.harvest_ms", "ms", float64(harvest)/1e6/float64(steps), steps, "session.Run time outside the transport, per step")
	rep.layer("session.allocs_per_probe", "count",
		float64(runAllocs-tt.advanceAllocs-tt.obsAllocs)/float64(res.Probes), res.Probes,
		"Mallocs outside the transport / probes, 1 worker")
	rep.layer("simtransport.observations_ms", "ms", float64(tt.observe)/1e6/float64(tt.obsCalls), tt.obsCalls, "mean per Observations call")

	obs, invalid := tt.inner.Observations()
	marker := badabing.RecommendedMarker(cfg.P, slot)
	const reps = 5
	marks := make([]time.Duration, reps)
	for i := range marks {
		sp := tr.begin("session.MarkSlots", root)
		start := time.Now()
		session.MarkSlots(obs, invalid, marker)
		marks[i] = time.Since(start)
		sp.endN(int64(len(obs)))
	}
	rep.layer("session.mark_ns_per_probe", "ns", median(durationsMs(marks))*1e6/float64(len(obs)), len(obs),
		fmt.Sprintf("median of %d MarkSlots calls on the final observations", reps))
	return nil
}

// codecStage times Header.Marshal + Unmarshal round trips.
func codecStage(rep *report, tr *tracer) {
	const n = 200_000
	sp := tr.begin("wire.codec", spanRef{})
	// P is dyadic so its fixed-point wire encoding round-trips exactly.
	h := wire.Header{ExpID: 1, P: 0.25, N: 60_000, PktsPerProbe: 3,
		SlotWidth: badabing.DefaultSlot, Seed: 1, Start: time.Now().UnixNano()}
	buf := make([]byte, wire.HeaderSize)
	var out wire.Header
	ok := true
	start := time.Now()
	for i := 0; i < n; i++ {
		h.Seq = uint64(i)
		h.SendTime = h.Start + int64(i)
		if _, err := h.Marshal(buf); err != nil {
			ok = false
		}
		if err := out.Unmarshal(buf); err != nil {
			ok = false
		}
	}
	elapsed := time.Since(start)
	sp.endN(n)
	rep.check(ok && out == h, "codec round trip mismatch")
	rep.layer("wire.codec_ns", "ns", float64(elapsed)/n, n, "Header.Marshal + Unmarshal")
}
