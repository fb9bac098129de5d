// Command badabingd is a long-running measurement daemon: it owns a
// fleet of concurrent BADABING measurement sessions and exposes an HTTP
// API to create sessions, watch live F̂/D̂/r̂ snapshots mid-run, stop
// sessions and scrape Prometheus metrics.
//
//	badabingd -listen :8642
//
//	curl -X POST localhost:8642/v1/sessions -d '{"scenario":"cbr","slots":60000}'
//	curl localhost:8642/v1/sessions/s0001/snapshot
//	curl localhost:8642/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"badabing/internal/fleet"
	"badabing/internal/health"
	"badabing/internal/obs"
	"badabing/internal/store"
	"badabing/internal/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "badabingd:", err)
		os.Exit(1)
	}
}

// run wires the registry and HTTP server together and blocks until ctx
// is cancelled, then drains: the registry stops accepting sessions
// (creates answer 503), in-flight sessions are cancelled and snapshot
// their partial estimates, and the daemon exits within -drain-timeout.
// If ready is non-nil it receives the bound listen address once the
// server accepts connections (used by tests to bind port 0).
func run(ctx context.Context, args []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("badabingd", flag.ContinueOnError)
	fs.SetOutput(logw)
	listen := fs.String("listen", ":8642", "HTTP listen address")
	maxSessions := fs.Int("max-sessions", 0, "max registered sessions (0 = default)")
	maxConcurrent := fs.Int("max-concurrent", 0, "max concurrently running sessions (0 = GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline for in-flight sessions")
	reflect := fs.String("reflect", "", "also host a UDP echo reflector on this address (e.g. :8643)")
	reflectShards := fs.Int("reflect-shards", wire.DefaultReflectorShards(),
		"echo goroutines for the co-hosted reflector (each with its own recvmmsg/sendmmsg batch state)")
	dataDir := fs.String("data-dir", "", "durable measurement archive directory (empty = in-memory only)")
	fsyncMode := fs.String("fsync", "interval", "WAL durability policy: always, interval or never")
	fsyncInterval := fs.Duration("fsync-interval", 100*time.Millisecond, "batch-fsync cadence under -fsync interval")
	segmentBytes := fs.Int64("segment-bytes", 4<<20, "WAL segment rotation size")
	retention := fs.Duration("retention", 0, "drop archived history older than this (0 = keep forever)")
	maxPending := fs.Int("max-pending", 0, "shed session creates (503) once this many sessions queue pending (0 = unbounded)")
	createRate := fs.Float64("create-rate", 0, "per-client session creates per second; over it creates shed 429 (0 = unlimited)")
	createBurst := fs.Int("create-burst", 10, "per-client create burst allowance under -create-rate")
	breakerThreshold := fs.Int("breaker-threshold", 3, "consecutive archive write failures that trip the store circuit breaker")
	breakerProbe := fs.Duration("breaker-probe", time.Second, "recovery-probe cadence while the store breaker is open")
	spillEvents := fs.Int("spill-events", 4096, "in-memory spill buffer capacity (events) while the store breaker is open")
	watchdogInterval := fs.Duration("watchdog-interval", 10*time.Second, "resource watchdog sampling cadence")
	maxGoroutines := fs.Int("max-goroutines", 5000, "goroutine budget; over it health degrades, at 2x it fails (0 = unwatched)")
	maxFDs := fs.Int("max-fds", 0, "open file-descriptor budget for the watchdog (0 = unwatched)")
	maxHeap := fs.Uint64("max-heap", 0, "heap-bytes budget for the watchdog (0 = unwatched)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log line encoding: text or json")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof profiles under /debug/pprof/ on the API listener")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// One structured logger and one metric registry for the whole
	// daemon: every subsystem logs through the former and registers its
	// instrument families into the latter, which GET /metrics renders.
	log, err := obs.NewLogger(logw, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	o := obs.NewRegistry()

	// Daemon-wide health: components (store breaker, resource watchdog)
	// report in; the aggregate drives /readyz and admission shedding.
	mon := health.NewMonitor(log)

	// The durable archive: WAL-backed session lifecycle + estimate
	// history, replayed on startup so sessions survive crashes. The
	// circuit breaker between registry and archive turns persistent
	// write failures (disk full, dying device) into bounded in-memory
	// spill + recovery replay instead of silent loss.
	var sink fleet.Sink
	var archive *store.Store
	var breaker *fleet.BreakerSink
	var info store.RecoveryInfo
	if *dataDir != "" {
		policy, err := store.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		a, rinfo, err := store.Open(store.Options{
			Dir:           *dataDir,
			SegmentBytes:  *segmentBytes,
			Fsync:         policy,
			FsyncInterval: *fsyncInterval,
			Retention:     *retention,
		})
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		archive = a
		breaker = fleet.NewBreakerSink(archive, fleet.BreakerConfig{
			Threshold:     *breakerThreshold,
			SpillCapacity: *spillEvents,
			ProbeInterval: *breakerProbe,
			Health:        mon,
			Log:           log,
		})
		sink = breaker
		info = rinfo
		archive.RegisterMetrics(o)
		breaker.RegisterMetrics(o)
		log.Info("store opened",
			"dir", *dataDir, "records", rinfo.Records, "segments", max(rinfo.Segments, 1),
			"replay", rinfo.Duration.Round(time.Microsecond),
			"torn_tails", rinfo.TornTails, "sessions", len(rinfo.Sessions))
	}

	// The resource watchdog feeds the health monitor: one transition log
	// per breach, degraded over budget, failing at 2x.
	wd := health.NewWatchdog(mon, health.Budgets{
		MaxGoroutines: *maxGoroutines,
		MaxFDs:        *maxFDs,
		MaxHeapBytes:  *maxHeap,
	}, *watchdogInterval)
	wd.Start()
	defer wd.Stop()
	wd.RegisterMetrics(o)

	reg := fleet.NewRegistry(fleet.Config{
		MaxSessions:   *maxSessions,
		MaxConcurrent: *maxConcurrent,
		Store:         sink,
	})
	// Close (and therefore the store flush+close) runs only after every
	// session goroutine joins; the registry owns that ordering.
	defer reg.Close()

	if sink != nil {
		sum := reg.Restore(info)
		if sum.Terminal+sum.Resumed+sum.Marked+sum.Skipped > 0 {
			log.Info("recovered sessions",
				"total", sum.Terminal+sum.Resumed+sum.Marked+sum.Skipped,
				"terminal", sum.Terminal, "resumed", sum.Resumed,
				"marked", sum.Marked, "skipped", sum.Skipped)
		}
	}

	// Optionally co-host a reflector so one daemon can serve as the far
	// end of another's wire sessions; its counters ride on /metrics.
	if *reflect != "" {
		pc, err := net.ListenPacket("udp", *reflect)
		if err != nil {
			return fmt.Errorf("reflector: %w", err)
		}
		refl := wire.NewReflectorConfig(pc, wire.ReflectorConfig{Shards: *reflectShards})
		refl.OnReadError(func(err error) {
			// Surfaced once per persistent error class (the loop keeps
			// serving); the running count rides on /metrics.
			log.Warn("reflector read errors", "err", err)
		})
		go refl.Run()
		defer refl.Close()
		refl.RegisterMetrics(o)
		log.Info("reflecting", "addr", pc.LocalAddr().String(), "shards", refl.Shards())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	var limiter *fleet.RateLimiter
	if *createRate > 0 {
		limiter = fleet.NewRateLimiter(*createRate, *createBurst)
	}
	handler := fleet.NewHandlerOpts(reg, fleet.HandlerOptions{
		Health:     mon,
		MaxPending: *maxPending,
		Limiter:    limiter,
		Obs:        o,
	})
	srv := newHTTPServer(handler, *pprofOn)
	log.Info("listening", "addr", ln.Addr().String(), "workers", reg.Workers(), "pprof", *pprofOn)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Info("draining", "deadline", *drainTimeout)
	start := time.Now()
	clean := reg.Drain(*drainTimeout)
	for _, s := range reg.List() {
		v := s.View()
		log.Info("session final",
			"session", v.ID, "state", v.State,
			"slots_done", v.SlotsDone, "slots", v.Config.Slots,
			"frequency", v.Snapshot.Total.Frequency)
	}
	if clean {
		log.Info("drained", "took", time.Since(start).Round(time.Millisecond))
	} else {
		log.Warn("drain deadline exceeded; exiting anyway", "deadline", *drainTimeout)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// newHTTPServer wraps the API handler in a server with conservative
// network timeouts, so one stalled or malicious client cannot pin a
// connection goroutine forever: header read bounded (slowloris), whole
// request read bounded (the API takes small JSON bodies only), idle
// keep-alives reaped. No WriteTimeout: /metrics and history responses
// legitimately stream, and the handler itself is not client-paced.
// With pprofOn the Go runtime profiles mount under /debug/pprof/ on an
// outer mux, ahead of the API's catch-all 404.
func newHTTPServer(h http.Handler, pprofOn bool) *http.Server {
	if pprofOn {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", h)
		h = outer
	}
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
