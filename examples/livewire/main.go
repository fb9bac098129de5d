// Livewire: the full BADABING tool running over real UDP sockets on
// localhost. A userspace impairment gateway (10 Mb/s link, 15 ms delay,
// drop-tail queue, engineered loss episodes) stands between the sender and
// the collector; the collector reconstructs the probe schedule from the
// packets alone and reports loss characteristics.
//
// This exercises the same code as the cmd/badabing and cmd/gateway
// binaries, wired together in-process. Takes about twelve real-time seconds.
//
// Run with:
//
//	go run ./examples/livewire
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/wire"
	"badabing/internal/wire/gateway"
)

func main() {
	// Collector (the collaborating target host).
	colConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	col := wire.NewCollector(colConn)
	go col.Run()
	defer col.Close()

	// Impairment gateway in front of it: loss episodes of ≈150 ms
	// roughly every 600 ms.
	gw, err := gateway.New(gateway.Config{
		Listen:          "127.0.0.1:0",
		Target:          colConn.LocalAddr().String(),
		BitsPerSec:      10_000_000,
		Delay:           15 * time.Millisecond,
		QueueBytes:      62_500, // 50 ms at 10 Mb/s
		EpisodeEvery:    900 * time.Millisecond,
		EpisodeDuration: 120 * time.Millisecond,
		EpisodeOverload: 1.5,
		Seed:            11,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()

	// Sender: 6 seconds of 10 ms slots at p = 0.5, improved design.
	conn, err := net.Dial("udp", gw.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	cfg := wire.SenderConfig{
		ExpID:    uint64(time.Now().Unix()),
		P:        0.5,
		N:        1200,
		Slot:     10 * time.Millisecond,
		Improved: true,
		Seed:     5,
	}
	fmt.Printf("probing through gateway %v for %v...\n",
		gw.Addr(), time.Duration(cfg.N)*cfg.Slot)
	st, err := wire.Send(context.Background(), conn, cfg)
	if err != nil {
		log.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond) // drain in-flight packets

	snap, ss, err := col.Estimate(cfg.ExpID, badabing.RecommendedMarker(cfg.P, cfg.Slot), estimate.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rep := snap.Total
	fwd, drop, eps := gw.Stats()

	fmt.Printf("sender: %d experiments, %d probes, %d packets (max pacing lag %v)\n",
		st.Experiments, st.Probes, st.Packets, st.MaxLag)
	fmt.Printf("gateway: forwarded %d, dropped %d, generated %d loss episodes\n", fwd, drop, eps)
	fmt.Printf("collector: %d packets, %d lost, %d probes invalidated for late pacing\n",
		ss.Packets, ss.PacketsLost, ss.LateInvalid)
	fmt.Printf("estimated loss frequency: %.4f\n", rep.Frequency)
	if rep.HasDuration {
		fmt.Printf("estimated episode duration: %.3fs (reliability ±%.3fs)\n", rep.Duration, rep.StdDev)
	}
	v := rep.Validation
	fmt.Printf("validation: 01/10 = %d/%d, violations %d, pass = %v\n",
		v.C01, v.C10, v.Violations, v.Passes(badabing.Criteria{}))
}
