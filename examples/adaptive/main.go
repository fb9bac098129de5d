// Adaptive: the §8 adaptivity extension running live over UDP. The sender
// starts probing gently (p = 0.1), queries the collector's control channel
// after every round, and escalates only if boundary evidence is arriving
// too slowly — stopping the moment the validation criteria and the §7
// reliability bound are met.
//
// The path is an impairment gateway with loss episodes roughly every
// 700 ms. Takes ≈10–20 real-time seconds depending on when the controller
// converges.
//
// Run with:
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/wire"
	"badabing/internal/wire/gateway"
)

func main() {
	colConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	slot := 10 * time.Millisecond
	col := wire.NewCollector(colConn)
	col.SetMarker(badabing.RecommendedMarker(0.3, slot))
	go col.Run()
	defer col.Close()

	gw, err := gateway.New(gateway.Config{
		Listen:          "127.0.0.1:0",
		Target:          colConn.LocalAddr().String(),
		BitsPerSec:      10_000_000,
		Delay:           10 * time.Millisecond,
		QueueBytes:      62_500,
		EpisodeEvery:    700 * time.Millisecond,
		EpisodeDuration: 120 * time.Millisecond,
		EpisodeOverload: 1.5,
		Seed:            7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()

	conn, err := net.Dial("udp", gw.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	fmt.Println("adaptive measurement through the impairment gateway...")
	start := time.Now()
	res, err := wire.SendAdaptive(context.Background(), conn, wire.AdaptiveConfig{
		BaseID: uint64(time.Now().Unix()) << 8,
		Controller: badabing.AdaptiveConfig{
			Slot:       slot, // paces the rounds and scales the estimates
			PMin:       0.1,
			PMax:       0.9,
			RoundSlots: 300, // 3 s rounds at 10 ms slots
			MaxRounds:  10,
			Monitor: badabing.MonitorConfig{
				MinExperiments: 200,
				Criteria:       badabing.Criteria{MinBoundarySamples: 12},
			},
		},
		Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	_, _, episodes := gw.Stats()
	fmt.Printf("done in %v: %d rounds, final p %.2f, %d probe packets, %d gateway episodes\n",
		time.Since(start).Round(time.Millisecond), res.Rounds, res.FinalP, res.Packets, episodes)
	if res.Converged {
		fmt.Println("stopped by convergence (validation + reliability bound)")
	} else {
		fmt.Println("stopped by round budget")
	}
	est := res.Estimates
	fmt.Printf("loss-episode frequency: %.4f\n", est.Frequency)
	if est.HasDuration {
		fmt.Printf("loss-episode duration:  %.3fs ± %.3fs\n", est.Duration, est.StdDev)
	}
}
