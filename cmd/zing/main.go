// Command zing is a ZING-style Poisson-modulated loss prober over UDP —
// the baseline tool of the paper's §4. The sender paces timestamped,
// sequence-numbered probes onto drawn Poisson epochs, and every probe
// carries the draw. The collector redraws the epochs, counts a probe lost
// once it is due and has not arrived, and reports loss frequency and the
// durations of runs of consecutive lost probes with the same analysis as
// the simulated prober. It drops a session one report after its last
// packet.
//
// Usage:
//
//	zing send -target HOST:PORT [-hz 10] [-size 256] [-duration 900s] [-id ID]
//	zing collect -listen :8791 [-every 10s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"badabing/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "send":
		err = runSend(os.Args[2:])
	case "collect":
		err = runCollect(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zing:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  zing send -target HOST:PORT [-hz 10] [-size 256] [-duration 900s]
  zing collect -listen ADDR [-every 10s]`)
}

func runSend(args []string) error {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	target := fs.String("target", "", "collector address (required)")
	hz := fs.Float64("hz", 10, "mean probe rate in probes per second")
	size := fs.Int("size", 256, "probe packet size")
	duration := fs.Duration("duration", 900*time.Second, "session length")
	id := fs.Uint64("id", uint64(time.Now().Unix()), "session id")
	seed := fs.Int64("seed", 0, "interval RNG seed (0 = derive from clock)")
	fs.Parse(args)
	if *target == "" {
		return fmt.Errorf("missing -target")
	}
	conn, err := net.Dial("udp", *target)
	if err != nil {
		return err
	}
	defer conn.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("session %d: Poisson probes at %.1f Hz, %dB → %s for %v\n",
		*id, *hz, *size, *target, *duration)
	sent, err := wire.ZingSend(ctx, conn, wire.ZingSenderConfig{
		ExpID: *id, Rate: *hz, Size: *size, Duration: *duration, Seed: *seed,
	})
	if errors.Is(err, context.Canceled) {
		fmt.Printf("interrupted after %d probes\n", sent)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("sent %d probes\n", sent)
	return nil
}

func runCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	listen := fs.String("listen", ":8791", "UDP address to listen on")
	every := fs.Duration("every", 10*time.Second, "report interval; after each report, sessions idle for longer are dropped")
	fs.Parse(args)
	if *every <= 0 {
		return fmt.Errorf("-every %v: want a positive interval", *every)
	}

	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		return err
	}
	defer conn.Close()
	col := wire.NewZingCollector()
	go func() {
		buf := make([]byte, 65536)
		for {
			n, _, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			var h wire.ZingHeader
			if err := h.Unmarshal(buf[:n]); err == nil {
				col.Record(&h, time.Now())
			}
		}
	}()
	fmt.Printf("collecting on %v\n", conn.LocalAddr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tick := time.NewTicker(*every)
	defer tick.Stop()
	serveReports(ctx, col, tick.C, *every, func() { report(col) })
	return nil
}

// serveReports emits a report at every tick and a last one when ctx
// ends. After each tick's report it forgets the sessions idle for at
// least every: ticks are every apart, so each session is reported at
// least once after its last packet, and is then dropped.
func serveReports(ctx context.Context, col *wire.ZingCollector, tick <-chan time.Time, every time.Duration, emit func()) {
	for {
		select {
		case <-ctx.Done():
			emit()
			return
		case <-tick:
			emit()
			col.Expire(every)
		}
	}
}

func report(col *wire.ZingCollector) {
	ids := col.Sessions()
	if len(ids) == 0 {
		fmt.Println("no sessions yet")
		return
	}
	for _, id := range ids {
		rep, err := col.Report(id)
		if err != nil {
			fmt.Printf("session %d: %v\n", id, err)
			continue
		}
		fmt.Printf("session %d: %d/%d probes received, frequency %.5f, loss runs %d, duration µ %.4fs (σ %.4f)\n",
			id, rep.Probes-rep.Lost, rep.Probes, rep.Frequency,
			rep.Duration.N(), rep.Duration.Mean(), rep.Duration.StdDev())
	}
}
