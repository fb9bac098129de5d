package wire

import (
	"context"
	"math"
	"net"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
)

// startCollector opens a loopback collector and returns it with its
// address.
func startCollector(t *testing.T) (*Collector, string) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(conn)
	go c.Run()
	t.Cleanup(func() { c.Close() })
	return c, conn.LocalAddr().String()
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestSendCollectCleanPath(t *testing.T) {
	col, addr := startCollector(t)
	conn := dial(t, addr)

	cfg := SenderConfig{
		ExpID: 42,
		P:     0.5,
		N:     200, // 1 s at 5 ms slots
		Seed:  7,
	}
	st, err := Send(context.Background(), conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Experiments == 0 || st.Packets == 0 {
		t.Fatalf("nothing sent: %+v", st)
	}
	time.Sleep(200 * time.Millisecond) // let the last packets land

	ids := col.Sessions()
	if len(ids) != 1 || ids[0] != 42 {
		t.Fatalf("sessions = %v, want [42]", ids)
	}
	snap, ss, err := col.Estimate(42, badabing.RecommendedMarker(cfg.P, badabing.DefaultSlot), estimate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.ProbesPlanned != st.Probes {
		t.Errorf("collector planned %d probes, sender sent %d", ss.ProbesPlanned, st.Probes)
	}
	if ss.PacketsLost != 0 {
		t.Errorf("loopback lost %d packets", ss.PacketsLost)
	}
	if snap.Total.Frequency != 0 {
		t.Errorf("loopback frequency %v, want 0", snap.Total.Frequency)
	}
	if snap.Total.M+ss.Skipped != st.Experiments {
		t.Errorf("assembled %d + skipped %d experiments, sender ran %d",
			snap.Total.M, ss.Skipped, st.Experiments)
	}
}

func TestCollectorUnknownSession(t *testing.T) {
	col, _ := startCollector(t)
	if _, _, err := col.Estimate(999, badabing.MarkerConfig{}, estimate.Config{}); err != ErrUnknownSession {
		t.Fatalf("err = %v, want ErrUnknownSession", err)
	}
}

func TestCollectorIgnoresGarbage(t *testing.T) {
	col, addr := startCollector(t)
	conn := dial(t, addr)
	if _, err := conn.Write([]byte("not a probe packet")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if got := col.Sessions(); len(got) != 0 {
		t.Fatalf("garbage created sessions: %v", got)
	}
}

func TestSendRespectsContext(t *testing.T) {
	_, addr := startCollector(t)
	conn := dial(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Send(ctx, conn, SenderConfig{ExpID: 1, P: 0.5, N: 100_000, Seed: 3})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSenderConfigValidation(t *testing.T) {
	_, addr := startCollector(t)
	conn := dial(t, addr)
	cases := []SenderConfig{
		{P: 0, N: 100},                   // bad p
		{P: 1.5, N: 100},                 // bad p
		{P: math.NaN(), N: 100},          // bad p
		{P: 0.5, N: 0},                   // bad n
		{P: 0.5, N: 100, PacketSize: 20}, // below header size
		{P: 0.5, N: 100, PacketsPerProbe: -1},
		{P: 0.5, N: 100, PacketsPerProbe: 256}, // header's count is one byte
		{P: 0.5, N: 100, PacketsPerProbe: 300},
		{P: 0.3, N: 100, Slot: -time.Millisecond}, // would send unpaced
	}
	for i, cfg := range cases {
		// Normalize is the check the wire transport relies on, before
		// any schedule is drawn.
		if norm := cfg; norm.Normalize() == nil {
			t.Errorf("case %d: Normalize accepted an invalid config", i)
		}
		if _, err := Send(context.Background(), conn, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSenderPacing(t *testing.T) {
	_, addr := startCollector(t)
	conn := dial(t, addr)
	start := time.Now()
	st, err := Send(context.Background(), conn, SenderConfig{
		ExpID: 5, P: 0.2, N: 100, Slot: 10 * time.Millisecond, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// The session spans ~1 s of slots; the sender must pace, not blast.
	if elapsed < 500*time.Millisecond {
		t.Errorf("session finished in %v — sender is not pacing to slot deadlines", elapsed)
	}
	if st.MaxLag > 5*time.Millisecond {
		t.Logf("warning: pacing lag %v (slow machine?)", st.MaxLag)
	}
}

func TestSessionStatsAccounting(t *testing.T) {
	col, addr := startCollector(t)
	conn := dial(t, addr)
	st, err := Send(context.Background(), conn, SenderConfig{
		ExpID: 9, P: 0.4, N: 400, Improved: true, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	snap, ss, err := col.Estimate(9, badabing.MarkerConfig{}, estimate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Packets != uint64(st.Packets) {
		t.Errorf("collector saw %d packets, sender sent %d", ss.Packets, st.Packets)
	}
	if ss.ProbesSeen != st.Probes {
		t.Errorf("collector saw %d probes, sender sent %d", ss.ProbesSeen, st.Probes)
	}
	// Some experiments may be discarded when the host paces a probe
	// late; the accounting must balance exactly.
	if snap.Total.M+ss.Skipped != st.Experiments {
		t.Errorf("report M=%d + skipped %d ≠ sent %d", snap.Total.M, ss.Skipped, st.Experiments)
	}
}
