package wire

import (
	"context"
	"net"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
)

func TestControlQueryRoundTrip(t *testing.T) {
	col, addr := startCollector(t)
	col.SetMarker(badabing.RecommendedMarker(0.5, badabing.DefaultSlot))
	conn := dial(t, addr)
	st, err := Send(context.Background(), conn, SenderConfig{
		ExpID: 21, P: 0.5, N: 200, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	reply, err := Query(conn, 21, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Found {
		t.Fatal("session not found via control channel")
	}
	if reply.Counts.M+reply.Skipped != st.Experiments {
		t.Fatalf("counts M=%d + skipped %d ≠ %d experiments",
			reply.Counts.M, reply.Skipped, st.Experiments)
	}
	// Loopback: nothing lost, nothing congested.
	if reply.Counts.Z != 0 || reply.PacketsLost != 0 {
		t.Fatalf("loopback reported congestion: %+v", reply)
	}
}

func TestControlQueryUnknownSession(t *testing.T) {
	_, addr := startCollector(t)
	conn := dial(t, addr)
	reply, err := Query(conn, 999, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Found {
		t.Fatal("unknown session reported found")
	}
	if _, err := QueryCounts(conn, 999, time.Second); err != ErrSessionNotFound {
		t.Fatalf("QueryCounts err = %v, want ErrSessionNotFound", err)
	}
}

func TestControlQueryTimeout(t *testing.T) {
	// A socket nobody answers on.
	silent, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	conn := dial(t, silent.LocalAddr().String())
	if _, err := Query(conn, 1, 200*time.Millisecond); err == nil {
		t.Fatal("query against a silent peer did not time out")
	}
}

func TestParseQueryRejectsProbes(t *testing.T) {
	buf := make([]byte, 600)
	h := Header{P: 0.5, N: 10, SlotWidth: time.Millisecond}
	h.Marshal(buf)
	if _, ok := parseQuery(buf); ok {
		t.Fatal("probe packet parsed as control query")
	}
	if _, ok := parseQuery([]byte{1, 2}); ok {
		t.Fatal("short packet parsed as control query")
	}
}

func TestSendAdaptiveLoopback(t *testing.T) {
	// Lossless loopback: the controller can never converge (no
	// boundaries), so it must escalate to PMax and stop at MaxRounds.
	col, addr := startCollector(t)
	col.SetMarker(badabing.MarkerConfig{})
	conn := dial(t, addr)
	res, err := SendAdaptive(context.Background(), conn, AdaptiveConfig{
		BaseID: 5000,
		Controller: badabing.AdaptiveConfig{
			Slot:       10 * time.Millisecond,
			RoundSlots: 100, // 1 s rounds
			MaxRounds:  3,
			Monitor:    badabing.MonitorConfig{MinExperiments: 10},
		},
		DrainWait: 100 * time.Millisecond,
		Seed:      31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("converged on a lossless path")
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	if res.FinalP <= 0.1 {
		t.Fatalf("p did not escalate: %v", res.FinalP)
	}
	if res.Estimates.Frequency != 0 {
		t.Fatalf("loopback frequency %v", res.Estimates.Frequency)
	}
}

func TestSendAdaptiveRespectsContext(t *testing.T) {
	_, addr := startCollector(t)
	conn := dial(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SendAdaptive(ctx, conn, AdaptiveConfig{
		BaseID:     1,
		Controller: badabing.AdaptiveConfig{RoundSlots: 100, MaxRounds: 2},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSendAdaptiveSlotWidth: the one slot width paces the rounds and
// converts the controller's estimates, so at 10 ms slots D̂ and the §7
// bound come out in 10 ms units. The far end answers every control query
// with the same round counts.
func TestSendAdaptiveSlotWidth(t *testing.T) {
	var round badabing.Accumulator
	for i := 0; i < 20; i++ {
		round.AddBasic(true, true)
		round.AddBasic(true, false)
		round.AddBasic(false, true)
	}
	counts := round.Counts()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			n, addr, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			if id, ok := parseQuery(buf[:n]); ok {
				reply, _ := encodeReply(ControlReply{ExpID: id, Found: true, Counts: counts})
				pc.WriteTo(reply, addr)
			}
		}
	}()

	const slot = 10 * time.Millisecond
	res, err := SendAdaptive(context.Background(), dial(t, pc.LocalAddr().String()), AdaptiveConfig{
		BaseID:     7000,
		Controller: badabing.AdaptiveConfig{Slot: slot, RoundSlots: 20, MaxRounds: 1},
		DrainWait:  time.Millisecond,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := round.DurationSlots()
	sd, _ := round.DurationStdDev()
	est := res.Estimates
	if want := time.Duration(d * float64(slot)).Seconds(); !est.HasDurationBasic || est.DurationBasic != want {
		t.Errorf("D̂ = %vs, want %v slots at %v = %vs", est.DurationBasic, d, slot, want)
	}
	if want := sd * slot.Seconds(); !est.HasStdDev || est.StdDev != want {
		t.Errorf("σ = %vs, want %vs", est.StdDev, want)
	}
}

// TestSendAdaptiveRejectsInvalidConfig: flag values the controller cannot
// run are an error before any probe leaves, never a panic.
func TestSendAdaptiveRejectsInvalidConfig(t *testing.T) {
	_, addr := startCollector(t)
	conn := dial(t, addr)
	for _, ctrl := range []badabing.AdaptiveConfig{
		{PMin: 0.95, PMax: 0.9},
		{RoundSlots: -1},
	} {
		res, err := SendAdaptive(context.Background(), conn, AdaptiveConfig{BaseID: 1, Controller: ctrl})
		if err == nil {
			t.Errorf("controller %+v accepted", ctrl)
		}
		if res.Packets != 0 {
			t.Errorf("controller %+v: sent %d packets before rejecting", ctrl, res.Packets)
		}
	}
	res, err := SendAdaptive(context.Background(), conn, AdaptiveConfig{BaseID: 1, PacketsPerProbe: 256})
	if err == nil || res.Packets != 0 {
		t.Errorf("256 packets per probe: err %v after %d packets, want a rejection before any", err, res.Packets)
	}
}

func TestCollectorEstimateBootstrap(t *testing.T) {
	col, addr := startCollector(t)
	conn := dial(t, addr)
	if _, err := Send(context.Background(), conn, SenderConfig{
		ExpID: 33, P: 0.5, N: 400, Seed: 35,
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	boot := estimate.Config{Kind: estimate.KindBootstrap, Resamples: 50}
	snap, ss, err := col.Estimate(33, badabing.MarkerConfig{}, boot)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Total.M == 0 || ss.Packets == 0 {
		t.Fatal("empty estimate")
	}
	// Loopback: frequency 0 with a degenerate [0,0] interval.
	if ci := snap.FrequencyCI; ci == nil || ci.Lo != 0 || ci.Hi != 0 {
		t.Fatalf("loopback frequency CI %+v, want [0, 0]", ci)
	}
	if _, _, err := col.Estimate(999, badabing.MarkerConfig{}, boot); err != ErrUnknownSession {
		t.Fatalf("unknown session err = %v", err)
	}
	if _, _, err := col.Estimate(33, badabing.MarkerConfig{}, estimate.Config{Kind: "fourier"}); err == nil {
		t.Fatal("unknown estimator kind accepted")
	}
}
