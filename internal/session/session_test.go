package session_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/lab"
	"badabing/internal/probe"
	"badabing/internal/session"
	"badabing/internal/session/simtransport"
	"badabing/internal/session/wiretransport"
	"badabing/internal/simnet"
	"badabing/internal/wire"
)

// TestFinalSnapshotMatchesBatch runs a full session on a lossy simulated
// path and checks the engine's central invariant: the final streaming
// snapshot is exactly what batch estimation over the final marked slots
// reports.
func TestFinalSnapshotMatchesBatch(t *testing.T) {
	cfg := session.Config{
		P:        0.3,
		Slots:    30000,
		Improved: true,
		Seed:     11,
	}
	p := lab.NewPath(lab.CBRUniform, lab.RunConfig{Seed: 12})
	tr := simtransport.New(p.Sim, p.D, 7, probe.BadabingConfig{})
	defer tr.Close()

	var updates []session.Update
	res, err := session.Run(context.Background(), tr, cfg, func(u session.Update) {
		updates = append(updates, u)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(updates) < 2 {
		t.Fatalf("published %d updates, want several harvest steps", len(updates))
	}
	if got := updates[len(updates)-1]; !reflect.DeepEqual(got, res.Final) {
		t.Errorf("last published update differs from Final:\n got %+v\nwant %+v", got, res.Final)
	}
	if res.Final.SlotsDone != cfg.Slots {
		t.Errorf("SlotsDone = %d, want %d", res.Final.SlotsDone, cfg.Slots)
	}
	if res.Final.Counters.ProbesSent != int64(res.Probes) {
		t.Errorf("ProbesSent = %d, want all %d probes settled", res.Final.Counters.ProbesSent, res.Probes)
	}
	if res.Final.Counters.PacketsLost == 0 {
		t.Error("expected losses on the CBR scenario, got none")
	}

	batch, skipped, err := estimate.Batch(estimate.Config{}, badabing.StreamConfig{}, res.Plans, res.Marked)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != int(res.Final.Counters.Skipped) {
		t.Errorf("batch skipped %d, session skipped %d", skipped, res.Final.Counters.Skipped)
	}
	if !reflect.DeepEqual(res.Final.Snapshot, batch) {
		t.Errorf("final snapshot diverges from batch estimation:\n got %+v\nwant %+v", res.Final.Snapshot, batch)
	}
}

// TestMidRunSnapshotsProgress checks that harvest steps publish increasing
// progress and that mid-run experiment counts never exceed the final one.
func TestMidRunSnapshotsProgress(t *testing.T) {
	cfg := session.Config{P: 0.2, Slots: 10000, Seed: 3}
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	tr := simtransport.New(s, d, 7, probe.BadabingConfig{})
	defer tr.Close()

	var last session.Update
	res, err := session.Run(context.Background(), tr, cfg, func(u session.Update) {
		if u.SlotsDone < last.SlotsDone {
			t.Errorf("SlotsDone went backwards: %d after %d", u.SlotsDone, last.SlotsDone)
		}
		if u.Counters.ProbesSent < last.Counters.ProbesSent {
			t.Errorf("ProbesSent went backwards: %d after %d", u.Counters.ProbesSent, last.Counters.ProbesSent)
		}
		last = u
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.Final.Counters.Experiments; got != int64(len(res.Plans)) {
		t.Errorf("fed %d experiments, want all %d (idle path, nothing skipped)", got, len(res.Plans))
	}
	if res.Final.Counters.PacketsLost != 0 {
		t.Errorf("idle path lost %d packets", res.Final.Counters.PacketsLost)
	}
}

// TestRunCancellation checks the engine honours context cancellation
// between harvest steps.
func TestRunCancellation(t *testing.T) {
	cfg := session.Config{P: 0.2, Slots: 100000, Seed: 3, StepSlots: 100, StepDelay: 10 * time.Millisecond}
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	tr := simtransport.New(s, d, 7, probe.BadabingConfig{})
	defer tr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	_, err := session.Run(ctx, tr, cfg, func(session.Update) {
		steps++
		if steps == 3 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if steps > 4 {
		t.Errorf("engine kept harvesting after cancellation: %d steps", steps)
	}
}

// TestRunRejectsUnendingStep: a negative step, or a loop clock past
// int64 nanoseconds, keeps the harvest loop from reaching the horizon or
// lets it wrap around to it; Run refuses both before probing starts. In
// the last case the step and the horizon fit, but the clock wraps on the
// step after 7.2e18 ns.
func TestRunRejectsUnendingStep(t *testing.T) {
	for _, cfg := range []session.Config{
		{P: 0.3, Slots: 400, Seed: 1, StepSlots: -1},
		{P: 0.3, Slots: 400, Seed: 1, StepSlots: 1 << 62},
		{P: 0.3, Slots: 400, Seed: 1, StepSlots: 1, Slot: 1 << 55},
		{P: 0.3, Slots: 400, Seed: 1, StepSlots: 200, Slot: 1 << 54},
	} {
		s := simnet.New()
		tr := simtransport.New(s, simnet.NewDumbbell(s, simnet.DumbbellConfig{}), 7, probe.BadabingConfig{})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		updates := 0
		_, err := session.Run(ctx, tr, cfg, func(session.Update) { updates++ })
		cancel()
		tr.Close()
		if err == nil || errors.Is(err, context.DeadlineExceeded) || updates > 0 {
			t.Errorf("StepSlots %d, Slot %v: Run returned %v after %d updates, want a config error and none",
				cfg.StepSlots, cfg.Slot, err, updates)
		}
	}
}

// TestSimWireParity pushes the same schedule through both substrates — the
// simulated idle dumbbell and a real UDP loopback round trip — and requires
// identical results: same probe count, zero losses, same marked outcomes
// and bit-identical loss-rate estimates.
func TestSimWireParity(t *testing.T) {
	if testing.Short() {
		t.Skip("paces real probes for ~2s")
	}
	if raceEnabled {
		t.Skip("race instrumentation slows pacing past the late-probe threshold")
	}
	// A wide slot keeps the late-probe threshold (slot/2) comfortably
	// above OS timer overshoot on a loaded machine, so no experiment is
	// invalidated and both substrates see the full schedule.
	const (
		seed  = 42
		pProb = 0.3
		slots = 150
		slotW = 20 * time.Millisecond
	)
	cfg := session.Config{
		P:         pProb,
		Slots:     slots,
		Slot:      slotW,
		Improved:  true,
		Seed:      seed,
		StepSlots: 50,
		Settle:    300 * time.Millisecond,
	}

	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	st := simtransport.New(s, d, 7, probe.BadabingConfig{Slot: slotW})
	defer st.Close()
	simRes, err := session.Run(context.Background(), st, cfg, nil)
	if err != nil {
		t.Fatalf("sim Run: %v", err)
	}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	refl := wire.NewReflector(pc)
	go refl.Run()
	defer refl.Close()

	wt, err := wiretransport.Dial(refl.Addr().String(), wire.SenderConfig{
		ExpID: 99, P: pProb, N: slots, Slot: slotW, Improved: true, Seed: seed,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer wt.Close()
	wireRes, err := session.Run(context.Background(), wt, cfg, nil)
	if err != nil {
		t.Fatalf("wire Run: %v", err)
	}
	// A host that cannot hold the discretization produces invalidated
	// probes by design (§7) — that is the machine failing, not the code,
	// so don't let a throttled CI box turn it into a test failure.
	if lag := wt.SendStats().MaxLag; lag > slotW/2 {
		t.Skipf("host could not pace %v slots (max lag %v); skipping parity check", slotW, lag)
	}

	if simRes.Probes != wireRes.Probes {
		t.Fatalf("probe counts diverge: sim %d, wire %d", simRes.Probes, wireRes.Probes)
	}
	if got := refl.Packets(); got != uint64(wireRes.Final.Counters.PacketsSent) {
		t.Errorf("reflector saw %d packets, sender reports %d", got, wireRes.Final.Counters.PacketsSent)
	}
	for name, res := range map[string]*session.Result{"sim": simRes, "wire": wireRes} {
		if res.Final.Counters.PacketsLost != 0 {
			t.Errorf("%s path lost %d packets on an idle/loopback path", name, res.Final.Counters.PacketsLost)
		}
		if res.Final.Counters.Skipped != 0 {
			t.Errorf("%s path skipped %d experiments", name, res.Final.Counters.Skipped)
		}
	}
	if !reflect.DeepEqual(simRes.Marked, wireRes.Marked) {
		t.Errorf("marked slot maps diverge: sim %d entries, wire %d entries", len(simRes.Marked), len(wireRes.Marked))
	}
	if simRes.Final.Snapshot.Total != wireRes.Final.Snapshot.Total {
		t.Errorf("estimates diverge:\n sim  %+v\n wire %+v", simRes.Final.Snapshot.Total, wireRes.Final.Snapshot.Total)
	}
	if simRes.Final.Snapshot.Total.Frequency != 0 {
		t.Errorf("loss frequency %v on a loss-free path", simRes.Final.Snapshot.Total.Frequency)
	}
}

// failingWrites is a loss-free simulated path whose probe socket rejects
// one write each time the engine asks, as a wire transport's pacer
// counts them.
type failingWrites struct {
	session.Transport
	n int64
}

func (f *failingWrites) WriteFailures() int64 {
	f.n++
	return f.n
}

// TestRunCarriesWriteFailures: the engine reads a transport's write
// failures at every harvest step and carries them in every update.
func TestRunCarriesWriteFailures(t *testing.T) {
	s := simnet.New()
	tr := simtransport.New(s, simnet.NewDumbbell(s, simnet.DumbbellConfig{}), 7, probe.BadabingConfig{})
	defer tr.Close()
	var got []int64
	res, err := session.Run(context.Background(), &failingWrites{Transport: tr},
		session.Config{P: 0.3, Slots: 4000, StepSlots: 500, Seed: 5},
		func(u session.Update) { got = append(got, u.Counters.WriteFailures) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("%d updates, want several harvest steps", len(got))
	}
	for i, wf := range got {
		if wf != int64(i+1) {
			t.Fatalf("update %d carries %d write failures, want %d", i, wf, i+1)
		}
	}
	if wf := res.Final.Counters.WriteFailures; wf != int64(len(got)) {
		t.Errorf("final update carries %d write failures, want %d", wf, len(got))
	}
}

// deadAfter is a simulated path whose far end dies at cut. The first
// advance past it still moves the clock, as a watchdog notices a death
// only later, and then fails with ErrPathDead; Observations keeps only
// the probes sent before the cut, as the wire transport truncates a dead
// path's. Every 50th of those probes is flagged invalid, so some
// experiments before the cut are skipped.
type deadAfter struct {
	session.Transport
	cut time.Duration
}

func (d *deadAfter) AdvanceTo(ctx context.Context, t time.Duration) error {
	if err := d.Transport.AdvanceTo(ctx, t); err != nil || t <= d.cut {
		return err
	}
	return fmt.Errorf("far end gone: %w", session.ErrPathDead)
}

func (d *deadAfter) Observations() ([]badabing.ProbeObs, map[int64]bool) {
	obs, _ := d.Transport.Observations()
	obs = obs[:sort.Search(len(obs), func(i int) bool { return obs[i].T >= d.cut })]
	invalid := make(map[int64]bool)
	for i := 0; i < len(obs); i += 50 {
		invalid[obs[i].Slot] = true
	}
	return obs, invalid
}

// TestAbortFeedsOnlyMeasuredExperiments: when the far end dies, the
// final pass feeds the experiments whose probes all precede the last
// observation the transport kept, and nothing after it. Skipped counts
// only the invalid experiments before the cut, and the final snapshot is
// batch estimation over those experiments.
func TestAbortFeedsOnlyMeasuredExperiments(t *testing.T) {
	cfg := session.Config{P: 0.3, Slots: 30000, Improved: true, Seed: 11}
	p := lab.NewPath(lab.CBRUniform, lab.RunConfig{Seed: 12})
	tr := &deadAfter{Transport: simtransport.New(p.Sim, p.D, 7, probe.BadabingConfig{}), cut: 61300 * time.Millisecond}
	defer tr.Close()

	res, err := session.Run(context.Background(), tr, cfg, nil)
	if !errors.Is(err, session.ErrPathDead) || res == nil || !res.Aborted {
		t.Fatalf("Run returned %+v, %v; want an aborted result and ErrPathDead", res, err)
	}
	obs, invalid := tr.Observations()
	last := obs[len(obs)-1].Slot
	var measured []badabing.Plan
	for _, pl := range res.Plans {
		if pl.Slot+int64(pl.Probes)-1 <= last {
			measured = append(measured, pl)
		}
	}
	if len(measured) == len(res.Plans) {
		t.Fatal("the cut left every experiment measured")
	}
	marked := session.MarkSlots(obs, invalid, badabing.RecommendedMarker(cfg.P, badabing.DefaultSlot))
	want, skipped, err := estimate.Batch(estimate.Config{}, badabing.StreamConfig{}, measured, marked)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Final.Counters
	if skipped == 0 || c.Skipped != int64(skipped) {
		t.Errorf("skipped %d experiments, want the %d invalid ones before the cut", c.Skipped, skipped)
	}
	if c.Experiments+c.Skipped != int64(len(measured)) {
		t.Errorf("fed %d and skipped %d experiments, want %d in all", c.Experiments, c.Skipped, len(measured))
	}
	if !reflect.DeepEqual(res.Final.Snapshot, want) {
		t.Errorf("final snapshot diverges from batch estimation over the measured experiments:\n got %+v\nwant %+v", res.Final.Snapshot, want)
	}
}
