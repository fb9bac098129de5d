// Command gateway runs the UDP impairment proxy standalone: a
// bandwidth-limited, fixed-delay, finite-buffer forwarding element with an
// optional loss-episode generator. It lets the badabing and zing tools be
// exercised end-to-end on a single machine or across a lab without router
// hardware.
//
// Usage:
//
//	gateway -listen :9000 -target HOST:PORT [-rate 10000000]
//	        [-delay 20ms] [-queue 125000]
//	        [-episode-every 10s] [-episode-duration 100ms] [-overload 1.5]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"badabing/internal/obs"
	"badabing/internal/wire/gateway"
)

func main() {
	listen := flag.String("listen", ":9000", "UDP address to listen on")
	target := flag.String("target", "", "address to forward to (required)")
	rate := flag.Int64("rate", 10_000_000, "emulated link rate, bits per second")
	delay := flag.Duration("delay", 20*time.Millisecond, "one-way propagation delay")
	queue := flag.Int("queue", 0, "queue size in bytes (0 = 100ms at the link rate)")
	epEvery := flag.Duration("episode-every", 0, "mean loss-episode spacing (0 = no episodes)")
	epDur := flag.Duration("episode-duration", 100*time.Millisecond, "loss-episode duration")
	overload := flag.Float64("overload", 1.5, "cross-traffic overload factor during episodes")
	seed := flag.Int64("seed", 1, "episode spacing seed")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log line encoding: text or json")
	flag.Parse()
	if *target == "" {
		fmt.Fprintln(os.Stderr, "gateway: missing -target")
		os.Exit(2)
	}
	log, err := obs.NewLoggerFlags(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(2)
	}
	g, err := gateway.New(gateway.Config{
		Listen:          *listen,
		Target:          *target,
		BitsPerSec:      *rate,
		Delay:           *delay,
		QueueBytes:      *queue,
		EpisodeEvery:    *epEvery,
		EpisodeDuration: *epDur,
		EpisodeOverload: *overload,
		Seed:            *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
	defer g.Close()
	log.Info("forwarding", "listen", g.Addr(), "target", *target, "rate_bps", *rate, "delay", *delay)
	if *epEvery > 0 {
		log.Info("loss episodes enabled", "mean_spacing", *epEvery, "duration", *epDur, "overload", *overload)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	for {
		msg := "stats"
		select {
		case <-ctx.Done():
			msg = "final stats"
		case <-tick.C:
		}
		// Ground truth at the paper's 5 ms slot.
		fwd, drop, eps := g.Stats()
		truth := g.Truth(5 * time.Millisecond)
		log.Info(msg, "forwarded", fwd, "dropped", drop, "episodes", eps,
			"true_episodes", truth.Episodes, "true_f", truth.Frequency, "true_d", truth.Duration.MeanDuration())
		if ctx.Err() != nil {
			return
		}
	}
}
