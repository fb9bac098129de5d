package gateway

import (
	"context"
	"net"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/wire"
)

func TestGatewayForwardsCleanly(t *testing.T) {
	t.Parallel()
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	g, err := New(Config{
		Listen: "127.0.0.1:0",
		Target: sink.LocalAddr().String(),
		Delay:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	conn, err := net.Dial("udp", g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	msg := []byte("hello through the gateway")
	start := time.Now()
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1500)
	sink.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := sink.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != string(msg) {
		t.Fatalf("payload corrupted: %q", buf[:n])
	}
	if lat := time.Since(start); lat < 5*time.Millisecond {
		t.Errorf("latency %v below configured 5ms delay", lat)
	}
	fwd, drop, _ := g.Stats()
	if fwd != 1 || drop != 0 {
		t.Fatalf("stats fwd=%d drop=%d, want 1/0", fwd, drop)
	}
}

func TestGatewayDropsWhenOverloaded(t *testing.T) {
	t.Parallel()
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// 1 Mb/s with a 2-packet queue: a burst of 20 packets must drop
	// most of its tail.
	g, err := New(Config{
		Listen:     "127.0.0.1:0",
		Target:     sink.LocalAddr().String(),
		BitsPerSec: 1_000_000,
		QueueBytes: 2500,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	conn, err := net.Dial("udp", g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pkt := make([]byte, 1200)
	for i := 0; i < 20; i++ {
		conn.Write(pkt)
	}
	// Drops are counted synchronously in the receive path; poll briefly
	// instead of sleeping a fixed interval.
	deadline := time.Now().Add(2 * time.Second)
	for {
		fwd, drop, _ := g.Stats()
		if fwd > 0 && drop > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 20x overload burst: fwd=%d drop=%d, want both > 0", fwd, drop)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEndToEndLossEpisodes is the live-socket analogue of the paper's
// experiment: BADABING sender → impairment gateway with engineered loss
// episodes → collector. The collector must measure a clearly nonzero loss
// frequency while a clean control run measures zero. It is the package's
// long soak (≈4 s of real-time probing) and is skipped under -short; with
// t.Parallel it overlaps the rest of the package instead of serializing.
//
// D̂ = 2(R/S − 1) + 1 rests on the episode boundaries the probes catch,
// so the soak is sized by episode count, not by time: short episodes at
// short spacing put a dozen in the 4 s, enough boundary observations
// that one more or one fewer 11 outcome cannot move D̂ out of its band.
func TestEndToEndLossEpisodes(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time end-to-end soak")
	}
	t.Parallel()
	colConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col := wire.NewCollector(colConn)
	go col.Run()
	defer col.Close()

	g, err := New(Config{
		Listen:          "127.0.0.1:0",
		Target:          colConn.LocalAddr().String(),
		BitsPerSec:      10_000_000,
		Delay:           10 * time.Millisecond,
		EpisodeEvery:    150 * time.Millisecond,
		EpisodeDuration: 60 * time.Millisecond,
		EpisodeOverload: 1.5,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	conn, err := net.Dial("udp", g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cfg := wire.SenderConfig{
		ExpID:    77,
		P:        0.5,
		N:        400,
		Slot:     10 * time.Millisecond, // 4 s; coarse enough for OS timers
		Improved: true,
		Seed:     9,
	}
	st, err := wire.Send(context.Background(), conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)

	// The gateway keeps at least 3× the episode duration between
	// episodes, so the soak holds at most ≈18; a seeded run holds ≈13.
	const minEpisodes = 8
	_, _, episodes := g.Stats()
	if episodes < minEpisodes {
		t.Fatalf("gateway generated %d episodes, want at least %d", episodes, minEpisodes)
	}
	snap, ss, err := col.Estimate(77, badabing.RecommendedMarker(cfg.P, cfg.Slot), estimate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := snap.Total
	truth := g.Truth(cfg.Slot)
	t.Logf("%d episodes (%d true), C01+C10 = %d, F̂ %.3f (F %.3f), D̂ %.3fs (D %.3fs)",
		episodes, truth.Episodes, rep.Validation.C01+rep.Validation.C10,
		rep.Frequency, truth.Frequency, rep.Duration, truth.Duration.Mean())
	if ss.PacketsLost == 0 {
		t.Fatal("no probe packets lost across episodes")
	}
	if rep.Frequency <= 0 {
		t.Fatalf("estimated frequency %v, want > 0 (lost %d of %d packets)",
			rep.Frequency, ss.PacketsLost, st.Packets)
	}
	// Episodes cover ≈60/285 ≈ 21% of time; the estimate should be
	// the right order of magnitude.
	if rep.Frequency < 0.02 || rep.Frequency > 0.8 {
		t.Errorf("estimated frequency %.3f wildly off expected ≈0.2", rep.Frequency)
	}
	if !rep.HasDuration {
		t.Error("no duration estimate despite repeated episodes")
	} else if rep.Duration < 0.02 || rep.Duration > 0.6 {
		t.Errorf("estimated duration %.3fs, want ≈0.06–0.2s order", rep.Duration)
	}
}
