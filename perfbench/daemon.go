package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"badabing/internal/estimate"
	"badabing/internal/fleet"
	"badabing/internal/health"
	"badabing/internal/obs"
	"badabing/internal/store"
)

// The seeded archive of prior sessions replayed at every set-up.
const (
	archiveSessions = 200
	archivePoints   = 150
)

const (
	daemonSetupReps = 11
	// pollInterval paces each client's GET /v1/sessions/{id} loop; every
	// scrapeEvery-th poll is followed by a GET /metrics.
	pollInterval = 5 * time.Millisecond
	scrapeEvery  = 4
	// daemonStepSlots is the sessions' harvest cadence.
	daemonStepSlots = 200
)

// sessionSpec is one session of the daemon-idle mix.
type sessionSpec struct {
	slots int64
	kind  string
}

// daemonCycle is the fixed session mix one cycle runs. Costs below are
// single-session wall times on a 2-CPU host; the counts put the p50
// inside the 6 000-slot class and the p90 inside the 20 000-slot class,
// so neither percentile sits on a class boundary.
var daemonCycle = []struct {
	spec  sessionSpec
	count int
}{
	{sessionSpec{40_000, "improved"}, 1}, // ≈0.9 s
	{sessionSpec{20_000, "improved"}, 4}, // ≈270 ms
	{sessionSpec{6_000, "bootstrap"}, 2}, // ≈150 ms
	{sessionSpec{6_000, "improved"}, 5},  // ≈37 ms
	{sessionSpec{2_000, "bootstrap"}, 2}, // ≈29 ms
	{sessionSpec{2_000, "improved"}, 6},  // ≈9 ms
}

// cycleJobs returns one cycle's sessions in a seeded order, each with a
// seeded session seed.
func cycleJobs(rng *rand.Rand) []daemonJob {
	var jobs []daemonJob
	for _, c := range daemonCycle {
		for i := 0; i < c.count; i++ {
			jobs = append(jobs, daemonJob{spec: c.spec})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for i := range jobs {
		jobs[i].seed = rng.Int63n(1<<40) + 1
	}
	return jobs
}

type daemonJob struct {
	spec sessionSpec
	seed int64
}

// seedArchive writes archiveSessions finished idle sessions through the
// store API, the history a restarted daemon replays.
func seedArchive(dir string, seed int64) error {
	st, _, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var totals store.Totals
	for i := 1; i <= archiveSessions; i++ {
		id := fmt.Sprintf("s%04d", i)
		sseed := rng.Int63n(1<<40) + 1
		cfg, err := json.Marshal(fleet.SessionConfig{Scenario: "idle", Slots: 6_000, StepSlots: 100, Seed: sseed})
		if err != nil {
			st.Close()
			return err
		}
		at = at.Add(time.Second)
		errs := []error{
			st.SessionCreated(id, at, cfg, sseed),
			st.SessionState(id, at, "running", false, "", 0, sseed),
		}
		var probes int64
		for j := 1; j <= archivePoints; j++ {
			probes += 50 + rng.Int63n(20)
			errs = append(errs, st.SessionPoint(id, store.Point{
				At: at.Add(time.Duration(j) * time.Millisecond).UnixNano(), SlotsDone: int64(j) * 100,
				M: probes / 2, ProbesSent: probes, PacketsSent: 3 * probes, Experiments: probes / 2,
			}))
		}
		totals.SessionsCreated++
		totals.SessionsFinished++
		totals.ProbesSent += probes
		totals.PacketsSent += 3 * probes
		errs = append(errs,
			st.SessionState(id, at.Add(time.Second), "done", true, "", 0, sseed),
			st.RegistryTotals(totals))
		if err := errors.Join(errs...); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// daemon is badabingd assembled in process: archive, breaker, health,
// registry and HTTP API on a loopback listener.
type daemon struct {
	store   *store.Store
	reg     *fleet.Registry
	srv     *http.Server
	served  chan struct{}
	base    string
	info    store.RecoveryInfo
	restore time.Duration
	summary fleet.RestoreSummary
}

// startDaemon opens the archive (replay), restores the registry and
// serves the API, returning once GET /readyz answers 200.
func startDaemon(dir string, client *http.Client, tr *tracer) (*daemon, error) {
	root := tr.begin("daemon.setup", spanRef{})
	defer root.end()
	d := &daemon{served: make(chan struct{})}
	sp := tr.begin("store.Open", root)
	st, info, err := store.Open(store.Options{Dir: dir})
	sp.endN(int64(info.Records))
	if err != nil {
		return nil, err
	}
	d.store, d.info = st, info
	mon := health.NewMonitor(nil)
	breaker := fleet.NewBreakerSink(st, fleet.BreakerConfig{Health: mon})
	o := obs.NewRegistry()
	st.RegisterMetrics(o)
	breaker.RegisterMetrics(o)
	d.reg = fleet.NewRegistry(fleet.Config{
		MaxSessions:   archiveSessions + 64,
		MaxConcurrent: workers(),
		Store:         breaker,
	})
	sp = tr.begin("fleet.Restore", root)
	start := time.Now()
	d.summary = d.reg.Restore(info)
	d.restore = time.Since(start)
	sp.endN(int64(len(info.Sessions)))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.reg.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{
		Handler:           fleet.NewHandlerOpts(d.reg, fleet.HandlerOptions{Health: mon, Obs: o}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	sp = tr.begin("http.readyz", root)
	defer sp.end()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("readyz not 200 within 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the HTTP server, then the registry (which closes the
// breaker and the archive after the last session goroutine joins).
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.served
	d.reg.Close()
}

// apiClient issues the workload's HTTP requests from one goroutine and
// records client-side latency per route and every unexpected status.
type apiClient struct {
	base         string
	c            *http.Client
	tr           *tracer
	lat          map[string][]float64
	requests     int64
	bad          int64
	badMsgs      []string
	shed         int64
	metricsBytes []float64
}

func (a *apiClient) do(parent spanRef, route, method, path string, body []byte, want int, out any) error {
	sp := a.tr.begin("http."+route, parent)
	start := time.Now()
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := a.c.Do(req)
	var data []byte
	status := 0
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	dur := time.Since(start)
	sp.endN(int64(len(data)))

	a.requests++
	a.lat[route] = append(a.lat[route], float64(dur)/1e6)
	if route == "metrics" {
		a.metricsBytes = append(a.metricsBytes, float64(len(data)))
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		a.shed++
	}
	if err == nil && status != want {
		err = fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, bytes.TrimSpace(data))
	}
	if err != nil {
		a.bad++
		if len(a.badMsgs) < 5 {
			a.badMsgs = append(a.badMsgs, err.Error())
		}
		return err
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// sessionView is the part of the session JSON the workload checks.
type sessionView struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Error     string     `json:"error"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	SlotsDone int64      `json:"slots_done"`
	Counters  struct {
		ProbesSent int64 `json:"probes_sent"`
		ProbesLost int64 `json:"probes_lost"`
	} `json:"counters"`
	Snapshot struct {
		Kind  string `json:"kind"`
		Total struct {
			M         int64   `json:"m"`
			Frequency float64 `json:"frequency"`
		} `json:"total"`
	} `json:"snapshot"`
}

func (v *sessionView) terminal() bool {
	switch v.State {
	case "pending", "running", "":
		return false
	}
	return true
}

type historyView struct {
	Count  int `json:"count"`
	Points []struct {
		SlotsDone  int64   `json:"slots_done"`
		M          int64   `json:"m"`
		Frequency  float64 `json:"frequency"`
		ProbesSent int64   `json:"probes_sent"`
	} `json:"points"`
}

// sessionOutcome is one session cycle's result.
type sessionOutcome struct {
	done                        bool
	createToFinal, queue, runMs float64
	problems                    []string
}

// runSession is one client cycle: create, poll to terminal (scraping
// /metrics every scrapeEvery-th poll), read the history, delete.
func (a *apiClient) runSession(job daemonJob) sessionOutcome {
	var out sessionOutcome
	root := a.tr.begin("daemon.session", spanRef{})
	defer root.end()
	body, err := json.Marshal(fleet.SessionConfig{
		Scenario: "idle", Slots: job.spec.slots, StepSlots: daemonStepSlots, Seed: job.seed,
		Estimator: &estimate.Config{Kind: job.spec.kind},
	})
	if err != nil {
		out.problems = append(out.problems, err.Error())
		return out
	}
	var v sessionView
	if err := a.do(root, "create", http.MethodPost, "/v1/sessions", body, http.StatusCreated, &v); err != nil {
		out.problems = append(out.problems, "create: "+err.Error())
		return out
	}
	id := v.ID
	for polls := 1; !v.terminal(); polls++ {
		time.Sleep(pollInterval)
		if err := a.do(root, "get", http.MethodGet, "/v1/sessions/"+id, nil, http.StatusOK, &v); err != nil {
			out.problems = append(out.problems, "get: "+err.Error())
			return out
		}
		if polls%scrapeEvery == 0 {
			a.do(root, "metrics", http.MethodGet, "/metrics", nil, http.StatusOK, nil)
		}
	}
	var h historyView
	if err := a.do(root, "history", http.MethodGet, "/v1/sessions/"+id+"/history", nil, http.StatusOK, &h); err != nil {
		out.problems = append(out.problems, "history: "+err.Error())
	}
	if err := a.do(root, "delete", http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusNoContent, nil); err != nil {
		out.problems = append(out.problems, "delete: "+err.Error())
	}

	out.done = v.State == "done"
	if !out.done {
		out.problems = append(out.problems, fmt.Sprintf("%s ended %q (%s)", id, v.State, v.Error))
		return out
	}
	if v.Snapshot.Total.Frequency != 0 || v.Counters.ProbesLost != 0 {
		out.problems = append(out.problems, fmt.Sprintf("%s on the idle path: F=%v, probes_lost=%d",
			id, v.Snapshot.Total.Frequency, v.Counters.ProbesLost))
	}
	if v.Snapshot.Kind != job.spec.kind || v.SlotsDone != job.spec.slots {
		out.problems = append(out.problems, fmt.Sprintf("%s: kind %q slots %d, want %q %d",
			id, v.Snapshot.Kind, v.SlotsDone, job.spec.kind, job.spec.slots))
	}
	if n := len(h.Points); n == 0 || h.Count != n {
		out.problems = append(out.problems, fmt.Sprintf("%s: history has %d points (count %d)", id, n, h.Count))
	} else if last := h.Points[n-1]; last.SlotsDone != v.SlotsDone || last.M != v.Snapshot.Total.M ||
		math.Float64bits(last.Frequency) != math.Float64bits(v.Snapshot.Total.Frequency) ||
		last.ProbesSent != v.Counters.ProbesSent {
		out.problems = append(out.problems, fmt.Sprintf("%s: last history point %+v != final snapshot", id, last))
	}
	if v.Finished == nil || v.Started == nil {
		out.problems = append(out.problems, id+": done without started/finished times")
		return out
	}
	out.createToFinal = float64(v.Finished.Sub(v.Created)) / 1e6
	out.queue = float64(v.Started.Sub(v.Created)) / 1e6
	out.runMs = float64(v.Finished.Sub(*v.Started)) / 1e6
	return out
}

// runDaemonIdle is the daemon-idle workload: one HTTP client in a closed
// loop runs cycles of the session mix against the in-process daemon until
// the measured time is up. One client keeps at most one session
// measuring, so two CPU-bound sessions on a 2-CPU host do not inflate
// each other's cost from run to run.
func runDaemonIdle(ctx context.Context, o options) (*report, error) {
	rep := &report{Workload: "daemon-idle"}
	dir, err := os.MkdirTemp("", "perfbench-daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := seedArchive(dir, o.seed); err != nil {
		return nil, fmt.Errorf("seed archive: %w", err)
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	// Set-up runs daemonSetupReps times before the timed run, on the
	// archive the sessions then use, and once after every cycle on an
	// identical spare archive, so setup_s is a median over the whole run
	// rather than over one moment of the host.
	spare, err := os.MkdirTemp("", "perfbench-daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spare)
	if err := seedArchive(spare, o.seed); err != nil {
		return nil, fmt.Errorf("seed archive: %w", err)
	}
	var setups, restores []time.Duration
	setup := func(dir string) (*daemon, error) {
		start := time.Now()
		d, err := startDaemon(dir, client, o.tr)
		if err != nil {
			return nil, fmt.Errorf("start daemon: %w", err)
		}
		setups = append(setups, time.Since(start))
		restores = append(restores, d.restore)
		rep.check(d.summary.Terminal == archiveSessions && d.summary.Resumed+d.summary.Marked+d.summary.Skipped == 0,
			"restore %+v, want %d terminal sessions", d.summary, archiveSessions)
		return d, nil
	}
	var d *daemon
	for i := 0; i < daemonSetupReps; i++ {
		if d, err = setup(dir); err != nil {
			return nil, err
		}
		if i < daemonSetupReps-1 {
			d.close()
		}
	}
	defer d.close()
	info := d.info

	api := &apiClient{base: d.base, c: client, tr: o.tr, lat: make(map[string][]float64)}
	rng := rand.New(rand.NewSource(o.seed))
	var outcomes []sessionOutcome

	st0 := d.store.Stats()
	heap := startHeapPeak()
	cpu0 := cpuSeconds()
	start := time.Now()
	// rates holds each cycle's done sessions per second of wall time
	// less host steal (see runLabSweep); ops_per_s is their median, so a
	// host stall during one cycle moves one sample. The cycle's sessions'
	// times are scaled by the share of the cycle the host left to it.
	var rates []float64
	var steal, asideCPU float64
	var asideWall time.Duration
	for len(rates) == 0 || time.Since(start) < o.seconds {
		s0, t0 := cpuSteal(), time.Now()
		done, first := 0, len(outcomes)
		for _, job := range cycleJobs(rng) {
			out := api.runSession(job)
			if out.done {
				done++
			}
			outcomes = append(outcomes, out)
		}
		r := timed(s0, t0)
		steal += r.steal
		for i := first; i < len(outcomes); i++ {
			out := &outcomes[i]
			out.createToFinal *= r.share()
			out.queue *= r.share()
			out.runMs *= r.share()
		}
		rates = append(rates, float64(done)/r.busy())
		heap.lap()
		a0, c0 := time.Now(), cpuSeconds()
		sd, err := setup(spare)
		if err != nil {
			heap.finish()
			return nil, err
		}
		sd.close()
		// Collect the spare daemon so its heap stays out of the next
		// cycle's peak; its time and CPU stay out of the run's.
		runtime.GC()
		heap.discard()
		asideWall += time.Since(a0)
		asideCPU += cpuSeconds() - c0
	}
	wall := time.Since(start) - asideWall
	cpu := cpuSeconds() - cpu0 - asideCPU
	peak := heap.finish()
	st1 := d.store.Stats()

	var c2f, queue, runMs []float64
	for _, out := range outcomes {
		rep.check(out.done && len(out.problems) == 0, "session: %v", out.problems)
		if out.done {
			c2f = append(c2f, out.createToFinal)
			queue = append(queue, out.queue)
			runMs = append(runMs, out.runMs)
		}
	}
	rep.Attempted += api.requests
	rep.Failed += api.bad
	if api.bad > 0 {
		rep.Checks = append(rep.Checks, fmt.Sprintf("%d unexpected HTTP responses, e.g. %v", api.bad, api.badMsgs))
	}
	done := len(c2f)
	if done == 0 {
		return nil, fmt.Errorf("no session reached done: %v", rep.Checks)
	}
	rep.infof("%d cycles of the %d-session mix, 1 client, %d restored sessions (%d records) per set-up",
		len(rates), len(outcomes)/len(rates), archiveSessions, info.Records)
	rep.infof("host steal %.1f%% of the timed wall time", 100*steal/wall.Seconds())

	rep.e2e("setup_s", "s", medianSeconds(setups), len(setups), "median: store.Open replay + Registry.Restore + first /readyz 200")
	rep.e2e("ops_per_s", "1/s", median(rates), len(rates), "median over cycles of sessions reaching done per second of wall time less steal")
	rep.e2e("cpu_us_per_op", "us", cpu/float64(done)*1e6, done, "process CPU per done session")
	rep.e2e("latency_p50_ms", "ms", quantile(c2f, 0.5), done, "p50 finished - created, less steal")
	rep.e2e("peak_heap_mb", "MiB", peak, len(rates), "median over cycles of the cycle's peak live heap")

	rep.layer("daemon.create_to_final_p90_ms", "ms", quantile(c2f, 0.9), done, "p90 finished - created")
	for _, r := range []struct {
		route string
		tail  float64
	}{{"create", 0.9}, {"get", 0.99}, {"history", 0.9}, {"delete", 0.9}, {"metrics", 0.9}} {
		xs := api.lat[r.route]
		rep.layer("http."+r.route+"_ms.p50", "ms", quantile(xs, 0.5), len(xs), "client-side")
		rep.layer(fmt.Sprintf("http.%s_ms.p%d", r.route, int(r.tail*100)), "ms", quantile(xs, r.tail), len(xs), "client-side")
	}
	rep.layer("http.shed", "count", float64(api.shed), int(api.requests), "429/503 responses")
	rep.layer("http.metrics_bytes", "bytes", median(api.metricsBytes), len(api.metricsBytes), "median /metrics body")
	rep.layer("fleet.queue_wait_ms", "ms", quantile(queue, 0.5), done, "p50 started - created")
	rep.layer("fleet.run_ms", "ms", quantile(runMs, 0.5), done, "p50 finished - started")
	rep.layer("fleet.restore_ms", "ms", median(durationsMs(restores)), len(restores), "median Registry.Restore")
	created := float64(len(outcomes))
	rep.layer("store.records_per_session", "count", float64(st1.RecordsWritten-st0.RecordsWritten)/created, len(outcomes), "store.Stats delta")
	rep.layer("store.bytes_per_session", "bytes", float64(st1.BytesWritten-st0.BytesWritten)/created, len(outcomes), "store.Stats delta")
	rep.layer("store.fsyncs_per_s", "1/s", float64(st1.Fsyncs-st0.Fsyncs)/wall.Seconds(), 0, "store.Stats delta, default fsync policy")
	rep.layer("store.replay_records_per_s", "1/s", float64(info.Records)/info.Duration.Seconds(), info.Records, "RecoveryInfo.Records / Duration")
	return rep, nil
}
