// Command badabing is the BADABING loss-measurement tool over real UDP:
// a sender that paces the slot-based probe process toward a collaborating
// target, and a collector that receives probes and reports loss episode
// frequency and duration estimates with validation.
//
// Usage:
//
//	badabing send -target HOST:PORT [-p 0.3] [-n 180000] [-slot 5ms]
//	              [-improved] [-packets 3] [-size 600] [-seed S] [-id ID]
//	badabing collect -listen :8790 [-alpha 0.1] [-tau 30ms] [-every 10s]
//	badabing measure -target HOST:PORT [-p 0.3] [-n 60000] [-slot 5ms] [-seed S]
//	                  [-estimator basic|improved|parametric|bootstrap]
//	badabing reflect -listen :8790
//
// The collector re-derives each session's probe schedule from parameters
// carried in the packets themselves, so no out-of-band coordination is
// needed beyond the address.
//
// send/collect split the two ends of a one-way measurement across hosts;
// measure/reflect are the round-trip deployment shape, where the far end
// is a dumb echo service and the sender runs the whole session engine —
// pacing, collection, marking and streaming estimation — locally.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/obs"
	"badabing/internal/session"
	"badabing/internal/session/wiretransport"
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
	case "measure":
		err = runMeasure(os.Args[2:])
	case "reflect":
		err = runReflect(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "badabing:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  badabing send -target HOST:PORT [flags]
  badabing collect -listen ADDR [flags]
  badabing measure -target HOST:PORT [flags]
  badabing reflect -listen ADDR
run "badabing <subcommand> -h" for flags`)
}

func runSend(args []string) error {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	target := fs.String("target", "", "collector address HOST:PORT (required)")
	p := fs.Float64("p", 0.3, "per-slot experiment probability")
	n := fs.Int64("n", 180000, "number of slots in the session")
	slot := fs.Duration("slot", badabing.DefaultSlot, "slot width")
	improved := fs.Bool("improved", false, "use the improved (triple-probe) design")
	packets := fs.Int("packets", 3, "packets per probe (1–255)")
	size := fs.Int("size", 600, "probe packet size in bytes")
	seed := fs.Int64("seed", 0, "schedule seed (0 = derive from clock)")
	id := fs.Uint64("id", uint64(time.Now().Unix()), "session id")
	adaptive := fs.Bool("adaptive", false, "adaptive mode: escalate p per round until the estimates validate (requires a collector answering control queries)")
	pmax := fs.Float64("pmax", 0.9, "adaptive: maximum probe probability")
	roundSlots := fs.Int64("round", 6000, "adaptive: slots per round")
	maxRounds := fs.Int("max-rounds", 40, "adaptive: round budget")
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

	if *adaptive {
		fmt.Printf("adaptive session %d: p %.2f→%.2f, %d-slot rounds → %s\n",
			*id, *p, *pmax, *roundSlots, *target)
		res, err := wire.SendAdaptive(ctx, conn, wire.AdaptiveConfig{
			BaseID:          *id,
			PacketsPerProbe: *packets,
			PacketSize:      *size,
			Seed:            *seed,
			Controller: badabing.AdaptiveConfig{
				PMin:       *p,
				PMax:       *pmax,
				RoundSlots: *roundSlots,
				MaxRounds:  *maxRounds,
				Slot:       *slot,
			},
		})
		if err != nil {
			return err
		}
		fmt.Printf("%d rounds, final p %.2f, %d packets, converged=%v\n",
			res.Rounds, res.FinalP, res.Packets, res.Converged)
		est := res.Estimates
		fmt.Printf("frequency %.5f", est.Frequency)
		if est.HasDuration {
			fmt.Printf(", duration %.4fs ± %.4f", est.Duration, est.StdDev)
		}
		fmt.Println()
		return nil
	}

	cfg := wire.SenderConfig{
		ExpID:           *id,
		P:               *p,
		N:               *n,
		Slot:            *slot,
		Improved:        *improved,
		Seed:            *seed,
		PacketsPerProbe: *packets,
		PacketSize:      *size,
	}
	fmt.Printf("session %d: p=%.2f N=%d slot=%v improved=%v → %s\n",
		*id, *p, *n, *slot, *improved, *target)
	st, err := wire.Send(ctx, conn, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("sent %d experiments, %d probes, %d packets; max pacing lag %v\n",
		st.Experiments, st.Probes, st.Packets, st.MaxLag)
	if st.MaxLag > *slot/2 {
		fmt.Printf("warning: pacing lag exceeded slot/2 — this host cannot sustain %v slots (see paper §7)\n", *slot)
	}
	return nil
}

// runMeasure drives a full round-trip session against an echo endpoint:
// the transport-neutral engine paces the schedule, collects the reflected
// probes on the same socket and streams estimates as the session runs.
func runMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	target := fs.String("target", "", "echo endpoint HOST:PORT (required; see badabing reflect)")
	p := fs.Float64("p", 0.3, "per-slot experiment probability")
	n := fs.Int64("n", 60000, "number of slots in the session")
	slot := fs.Duration("slot", badabing.DefaultSlot, "slot width")
	improved := fs.Bool("improved", true, "use the improved (triple-probe) design")
	seed := fs.Int64("seed", 0, "schedule seed (0 = derive from clock)")
	id := fs.Uint64("id", uint64(time.Now().Unix()), "session id")
	step := fs.Int64("step", 1000, "harvest cadence in slots")
	window := fs.Int64("window", 0, "streaming window span in slots (0 = whole session)")
	estKind := fs.String("estimator", estimate.DefaultKind,
		"streaming estimator kind: "+estimate.KindList())
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log line encoding: text or json")
	fs.Parse(args)
	if *target == "" {
		return fmt.Errorf("missing -target")
	}
	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	cfg := session.Config{
		P: *p, Slots: *n, Slot: *slot, Improved: *improved, Seed: *seed,
		StepSlots: *step, WindowSlots: *window,
		Estimator: estimate.Config{Kind: *estKind},
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tr, err := wiretransport.Dial(*target, wire.SenderConfig{
		ExpID: *id, P: *p, N: *n, Slot: *slot, Improved: *improved, Seed: *seed,
	})
	if err != nil {
		return err
	}
	defer tr.Close()

	log.Info("session starting",
		"session", *id, "p", *p, "slots", *n, "slot", *slot,
		"improved", *improved, "target", *target)
	res, err := session.Run(ctx, tr, cfg, func(u session.Update) {
		est := u.Snapshot.Total
		fmt.Printf("  %6d/%d slots  F̂=%.5f", u.SlotsDone, *n, est.Frequency)
		printCI(u.Snapshot.FrequencyCI)
		if est.HasDuration {
			fmt.Printf("  D̂=%.4fs", est.Duration)
			printCI(u.Snapshot.DurationCI)
		}
		fmt.Printf("  (%s)\n", u.Counters)
	})
	if err != nil {
		return err
	}
	final := res.Final.Snapshot
	est := final.Total
	fmt.Printf("done (%s): %d probes, frequency %.5f", final.Kind, res.Probes, est.Frequency)
	printCI(final.FrequencyCI)
	if est.HasDuration {
		fmt.Printf(", duration %.4fs", est.Duration)
		printCI(final.DurationCI)
	}
	fmt.Println()
	if lag := tr.SendStats().MaxLag; lag > *slot/2 {
		log.Warn("pacing lag exceeded slot/2; this host cannot sustain this slot width (see paper §7)",
			"max_lag", lag, "slot", *slot)
	}
	return nil
}

// runReflect is the far end of measure: a dumb UDP echo service.
func runReflect(args []string) error {
	fs := flag.NewFlagSet("reflect", flag.ExitOnError)
	listen := fs.String("listen", ":8790", "UDP address to listen on")
	fs.Parse(args)

	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		return err
	}
	refl := wire.NewReflector(conn)
	defer refl.Close()
	fmt.Printf("reflecting on %v\n", conn.LocalAddr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		refl.Close()
	}()
	refl.Run()
	fmt.Printf("echoed %d packets\n", refl.Packets())
	return nil
}

func runCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	listen := fs.String("listen", ":8790", "UDP address to listen on")
	alpha := fs.Float64("alpha", 0.1, "queue high-water fraction for delay marking")
	tau := fs.Duration("tau", 30*time.Millisecond, "window around losses for delay marking")
	every := fs.Duration("every", 10*time.Second, "report interval; after each report, sessions idle for longer are dropped")
	jsonOut := fs.Bool("json", false, "emit reports as JSON lines (the daemon's session-snapshot schema)")
	ci := fs.Bool("ci", false, "estimate with the bootstrap kind: 95% confidence intervals for the estimates")
	fs.Parse(args)
	if *every <= 0 {
		return fmt.Errorf("-every %v: want a positive interval", *every)
	}

	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		return err
	}
	col := wire.NewCollector(conn)
	go col.Run()
	defer col.Close()
	fmt.Printf("collecting on %v (alpha=%.3f tau=%v)\n", conn.LocalAddr(), *alpha, *tau)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tick := time.NewTicker(*every)
	defer tick.Stop()
	marker := badabing.MarkerConfig{Alpha: *alpha, Tau: *tau}
	col.SetMarker(marker) // control-channel queries use the same marking
	var est estimate.Config
	if *ci {
		est.Kind = estimate.KindBootstrap
	}
	emit := func() { report(col, marker, est) }
	if *jsonOut {
		emit = func() { reportJSON(col, marker, est) }
	}
	serveReports(ctx, col, tick.C, *every, emit)
	return nil
}

// serveReports emits a report at every tick and a last one when ctx
// ends. After each tick's report it forgets the sessions idle for longer
// than every: ticks are every apart, so each session is reported at least
// once after its last packet, and is then dropped.
func serveReports(ctx context.Context, col *wire.Collector, tick <-chan time.Time, every time.Duration, emit func()) {
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

// jsonReport is the machine-readable form of a session's estimates:
// Snapshot is the daemon's session-snapshot schema, validation included.
type jsonReport struct {
	Session     uint64            `json:"session"`
	Stats       wire.SessionStats `json:"stats"`
	Snapshot    estimate.Snapshot `json:"snapshot"`
	Validated   bool              `json:"validated"`
	GeneratedAt time.Time         `json:"generated_at"`
}

func reportJSON(col *wire.Collector, marker badabing.MarkerConfig, est estimate.Config) {
	enc := json.NewEncoder(os.Stdout)
	for _, id := range col.Sessions() {
		snap, ss, err := col.Estimate(id, marker, est)
		if err != nil {
			continue
		}
		enc.Encode(jsonReport{
			Session:     id,
			Stats:       ss,
			Snapshot:    snap,
			Validated:   snap.Total.Validation.Passes(badabing.Criteria{}),
			GeneratedAt: time.Now().UTC(),
		})
	}
}

// report prints every session's estimates, with confidence intervals
// when the estimator kind attaches them.
func report(col *wire.Collector, marker badabing.MarkerConfig, est estimate.Config) {
	ids := col.Sessions()
	if len(ids) == 0 {
		fmt.Println("no sessions yet")
		return
	}
	for _, id := range ids {
		snap, ss, err := col.Estimate(id, marker, est)
		if err != nil {
			fmt.Printf("session %d: %v\n", id, err)
			continue
		}
		e := snap.Total
		fmt.Printf("session %d: %d pkts (%d lost, %d probes invalidated)\n",
			id, ss.Packets, ss.PacketsLost, ss.LateInvalid)
		fmt.Printf("  frequency: %.5f", e.Frequency)
		printCI(snap.FrequencyCI)
		fmt.Println()
		if e.HasDuration {
			improved := "n/a"
			if e.HasDurationImproved {
				improved = fmt.Sprintf("%.4f", e.DurationImproved)
			}
			fmt.Printf("  duration:  %.4fs", e.Duration)
			printCI(snap.DurationCI)
			fmt.Printf(" (basic %.4f, improved %s, ±%.4f)\n", e.DurationBasic, improved, e.StdDev)
		} else {
			fmt.Println("  duration:  no episode boundaries observed yet")
		}
		v := e.Validation
		fmt.Printf("  validation: 01/10=%d/%d asym=%.2f violations=%d (rate %.3f) pass=%v\n",
			v.C01, v.C10, v.BoundaryAsymmetry, v.Violations, v.ViolationRate,
			v.Passes(badabing.Criteria{}))
	}
}

// printCI renders a bootstrap confidence interval inline, when present.
func printCI(ci *badabing.Interval) {
	if ci == nil {
		return
	}
	fmt.Printf(" [%.5f, %.5f]@%v", ci.Lo, ci.Hi, ci.Level)
}
