package gateway

import (
	"net"
	"testing"
	"time"
)

func TestGatewayQueueingAddsLatency(t *testing.T) {
	t.Parallel()
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// 1 Mb/s: a 1250-byte packet drains in 10 ms. Queue two packets
	// behind each other; the second should arrive ≈10 ms after the
	// first.
	g, err := New(Config{
		Listen:     "127.0.0.1:0",
		Target:     sink.LocalAddr().String(),
		BitsPerSec: 1_000_000,
		QueueBytes: 100_000,
		Delay:      time.Millisecond,
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
	pkt := make([]byte, 1250)
	conn.Write(pkt)
	conn.Write(pkt)

	var arrivals []time.Time
	buf := make([]byte, 2048)
	sink.SetReadDeadline(time.Now().Add(2 * time.Second))
	for len(arrivals) < 2 {
		if _, _, err := sink.ReadFrom(buf); err != nil {
			t.Fatalf("read %d: %v", len(arrivals), err)
		}
		arrivals = append(arrivals, time.Now())
	}
	gap := arrivals[1].Sub(arrivals[0])
	if gap < 5*time.Millisecond {
		t.Errorf("second packet arrived %v after first; want ≈10ms of queueing", gap)
	}
}

func TestGatewayEpisodesDropProbes(t *testing.T) {
	t.Parallel()
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	g, err := New(Config{
		Listen:          "127.0.0.1:0",
		Target:          sink.LocalAddr().String(),
		BitsPerSec:      10_000_000,
		EpisodeEvery:    150 * time.Millisecond,
		EpisodeDuration: 50 * time.Millisecond,
		EpisodeOverload: 1.5,
		Seed:            5,
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
	// Probe for ~1.2 s: the 150 ms mean spacing (floored at 3× the 50 ms
	// duration) yields several episodes in the window.
	pkt := make([]byte, 600)
	deadline := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(deadline) {
		conn.Write(pkt)
		time.Sleep(3 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	g.Close() // no episode starts between the reads below
	fwd, drop, eps := g.Stats()
	if eps == 0 {
		t.Fatal("no episodes generated")
	}
	if drop == 0 {
		t.Fatalf("no probe drops across %d episodes (forwarded %d)", eps, fwd)
	}
	if fwd == 0 {
		t.Fatal("everything dropped")
	}
	// Episodes cover a minority of time; most probes get through.
	if float64(drop) > float64(fwd) {
		t.Errorf("more drops (%d) than forwards (%d): episodes too aggressive", drop, fwd)
	}
	// The queue's ground truth sees each generated episode once; the
	// generator may have started one whose first drop is still to come.
	if tr := g.Truth(5 * time.Millisecond); tr.Episodes < eps-1 || tr.Episodes > eps {
		t.Errorf("ground truth holds %d episodes, generator made %d", tr.Episodes, eps)
	}
}

func TestGatewayConfigErrors(t *testing.T) {
	t.Parallel()
	if _, err := New(Config{Listen: "not-an-addr::::", Target: "127.0.0.1:1"}); err == nil {
		t.Error("bad listen address accepted")
	}
	if _, err := New(Config{Listen: "127.0.0.1:0", Target: "also bad::::"}); err == nil {
		t.Error("bad target address accepted")
	}
}

func TestGatewayCloseIdempotent(t *testing.T) {
	t.Parallel()
	sink, _ := net.ListenPacket("udp", "127.0.0.1:0")
	defer sink.Close()
	g, err := New(Config{Listen: "127.0.0.1:0", Target: sink.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	g.Close() // must not panic or deadlock
}
