// Package fleet is the multi-session measurement service behind the
// badabingd daemon: a registry that owns many concurrent BADABING
// measurement sessions, each probing one path and feeding a streaming
// estimator, with create/start/snapshot/stop lifecycle, bounded
// concurrency on the shared experiment engine (internal/runner),
// per-session context cancellation and panic isolation.
//
// Sessions run on the transport-neutral session engine
// (internal/session): simulated scenarios (the lab testbed workloads)
// measure in-process virtual paths, and the "wire" scenario measures the
// round trip to a real UDP echo endpoint through the same engine.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"badabing/internal/estimate"
	"badabing/internal/runner"
	"badabing/internal/session"
	"badabing/internal/store"
	"badabing/internal/wire"
)

// State is a session's lifecycle position.
type State int

// Session states. Pending sessions are created but waiting for a worker
// slot; Done, Failed, Stopped, Degraded and Recovered are terminal.
// Degraded marks a session whose far end died mid-run (after any
// retries): it carries partial estimates covering only the window the
// path was alive, clearly flagged so the outage is never read as
// measured loss. Recovered marks a session that was interrupted by a
// daemon restart and whose spec did not opt into resuming: its partial
// estimates and persisted history stand, clearly flagged as cut short.
const (
	Pending State = iota
	Running
	Done
	Failed
	Stopped
	Degraded
	Recovered
)

// states lists every State for name lookups and metrics rows.
var states = []State{Pending, Running, Done, Failed, Stopped, Degraded, Recovered}

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Stopped:
		return "stopped"
	case Degraded:
		return "degraded"
	case Recovered:
		return "recovered"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Stopped || s == Degraded || s == Recovered
}

// MarshalJSON renders the state as its lowercase name.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// stateFromString maps a lowercase name back to its State.
func stateFromString(name string) (State, bool) {
	for _, st := range states {
		if st.String() == name {
			return st, true
		}
	}
	return 0, false
}

// UnmarshalJSON parses the lowercase name form emitted by MarshalJSON.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	st, ok := stateFromString(name)
	if !ok {
		return fmt.Errorf("fleet: unknown session state %q", name)
	}
	*s = st
	return nil
}

// SessionConfig describes one measurement session. The zero value is
// completed with defaults; it is the JSON body of the create API call.
type SessionConfig struct {
	// Name is a free-form label; defaults to the session id.
	Name string `json:"name,omitempty"`
	// Scenario selects the path: a simulated workload — "idle", "tcp",
	// "cbr" (default), "cbr-mixed" or "web" — or "wire" to measure the
	// round trip to a real UDP echo endpoint (Target).
	Scenario string `json:"scenario,omitempty"`
	// Target is the "wire" scenario's echo endpoint, host:port.
	Target string `json:"target,omitempty"`
	// P is the per-slot experiment probability. Default 0.3.
	P float64 `json:"p,omitempty"`
	// Slots is the measurement horizon in slots. Default 60000 (5
	// minutes at the default 5 ms slot).
	Slots int64 `json:"slots,omitempty"`
	// SlotMicros is the slot width in microseconds. Default 5000.
	SlotMicros int64 `json:"slot_micros,omitempty"`
	// Basic disables the improved (triple-probe) design.
	Basic bool `json:"basic,omitempty"`
	// ExtendedFraction is the improved design's triple-probe weighting;
	// null selects the paper's 1/2, 0 disables extended experiments.
	ExtendedFraction *float64 `json:"extended_fraction,omitempty"`
	// ExtendedPairs enables the §5.5 pair-counting modification.
	ExtendedPairs bool `json:"extended_pairs,omitempty"`
	// Estimator selects and parameterizes the streaming estimator
	// (kind: basic, improved, parametric or bootstrap, plus bootstrap
	// tuning). Omitted selects the improved estimator. Unknown kinds and
	// out-of-range settings are rejected at create time (HTTP 400).
	Estimator *estimate.Config `json:"estimator,omitempty"`
	// Seed fixes all randomness; 0 derives a stable seed from the
	// session id via the runner's descriptor hash.
	Seed int64 `json:"seed,omitempty"`
	// WindowSlots is the streaming estimator's sliding-window span.
	// Default Slots/4 (min 1000 slots).
	WindowSlots int64 `json:"window_slots,omitempty"`
	// StepSlots is the harvest cadence: how often (in slots of virtual
	// time) the session marks newly settled experiments, feeds them to
	// the stream and publishes a snapshot. Default 1000.
	StepSlots int64 `json:"step_slots,omitempty"`
	// StepDelayMicros throttles the session by sleeping this much real
	// time between harvest steps. Simulated paths run in virtual time,
	// so 0 means "as fast as the CPU allows"; set it to pace a session
	// like a live one.
	StepDelayMicros int64 `json:"step_delay_micros,omitempty"`
	// MaxRetries re-queues a failed session up to this many times with
	// capped exponential backoff before it goes terminal. Stopped
	// (cancelled) sessions are never retried. Default 0 (no retries).
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoffMillis is the initial retry backoff; it doubles per
	// attempt (capped, jittered — the same curve the wire liveness
	// handshake uses). Default 500ms when MaxRetries > 0.
	RetryBackoffMillis int64 `json:"retry_backoff_millis,omitempty"`
	// Resume opts the session into crash recovery: if the daemon
	// restarts while the session is pending or running, the session is
	// re-queued and measured again per this spec (its persisted history
	// keeps accumulating). Without it an interrupted session is marked
	// `recovered` — terminal, with its partial estimates standing.
	Resume bool `json:"resume,omitempty"`
}

func (c *SessionConfig) applyDefaults() {
	if c.Scenario == "" {
		c.Scenario = "cbr"
	}
	if c.P == 0 {
		c.P = 0.3
	}
	if c.Slots == 0 {
		c.Slots = 60_000
	}
	if c.SlotMicros == 0 {
		c.SlotMicros = 5000
	}
	if c.WindowSlots == 0 {
		c.WindowSlots = max64(c.Slots/4, 1000)
	}
	if c.StepSlots == 0 {
		c.StepSlots = 1000
	}
	if c.MaxRetries > 0 && c.RetryBackoffMillis == 0 {
		c.RetryBackoffMillis = 500
	}
}

// slot is the slot width.
func (c *SessionConfig) slot() time.Duration { return time.Duration(c.SlotMicros) * time.Microsecond }

// estimatorConfig resolves the estimator selection; nil (the spec
// omitted it) means the zero config, i.e. the default improved kind.
func (c *SessionConfig) estimatorConfig() estimate.Config {
	if c.Estimator == nil {
		return estimate.Config{}
	}
	return *c.Estimator
}

// EstimatorKind returns the canonical name of the estimator the session
// runs with (after defaulting).
func (c *SessionConfig) EstimatorKind() string {
	kind, err := estimate.Normalize(c.estimatorConfig().Kind)
	if err != nil {
		return c.Estimator.Kind
	}
	return kind
}

// sessionConfig is the session engine's form of the spec, measured with
// the given schedule seed. Validate and measure both go through it, so
// the spec that is checked is the spec that runs.
func (c *SessionConfig) sessionConfig(seed int64) session.Config {
	return session.Config{
		P:                c.P,
		Slots:            c.Slots,
		Slot:             c.slot(),
		Improved:         !c.Basic,
		ExtendedFraction: c.ExtendedFraction,
		ExtendedPairs:    c.ExtendedPairs,
		Estimator:        c.estimatorConfig(),
		Seed:             seed,
		WindowSlots:      c.WindowSlots,
		StepSlots:        c.StepSlots,
		StepDelay:        time.Duration(c.StepDelayMicros) * time.Microsecond,
	}
}

// Validate rejects configurations the daemon must not crash on. The
// fleet checks its own fields: each µs or ms count must convert to a
// non-negative int64 of nanoseconds (a wrapped slot turns negative, a
// wrapped backoff reads as none), the retry budget, the scenario and the
// wire target. session.Config.Validate checks the rest of the spec.
func (c *SessionConfig) Validate() error {
	if !fitsNs(c.SlotMicros, time.Microsecond) {
		return fmt.Errorf("fleet: slot width %dµs out of range", c.SlotMicros)
	}
	if !fitsNs(c.StepDelayMicros, time.Microsecond) {
		return fmt.Errorf("fleet: step delay %dµs out of range", c.StepDelayMicros)
	}
	if c.MaxRetries < 0 || c.MaxRetries > 100 {
		return fmt.Errorf("fleet: max_retries %d out of range [0,100]", c.MaxRetries)
	}
	if !fitsNs(c.RetryBackoffMillis, time.Millisecond) {
		return fmt.Errorf("fleet: retry backoff %dms out of range", c.RetryBackoffMillis)
	}
	if _, err := scenarioOf(c.Scenario); err != nil {
		return err
	}
	if strings.ToLower(c.Scenario) == "wire" && c.Target == "" {
		return errors.New("fleet: wire scenario requires a target")
	}
	return c.sessionConfig(c.Seed).Validate()
}

// fitsNs reports whether n units are a non-negative time.Duration.
func fitsNs(n int64, unit time.Duration) bool { return 0 <= n && n <= math.MaxInt64/int64(unit) }

// Sink receives the registry's durable events: session lifecycle
// transitions, periodic estimate snapshots and the lifetime totals.
// *store.Store is the production implementation; store.NewMem() is the
// in-memory test double. Implementations must be safe for concurrent
// use; calls never block on anything slower than a local disk append.
//
// Each method returns the durable-append error, if any — a full disk
// must be a visible event, not silent history loss. The registry itself
// does not retry on errors; wrap the sink in a BreakerSink to convert
// persistent failures into bounded in-memory spill + recovery replay.
type Sink interface {
	SessionCreated(id string, at time.Time, cfgJSON []byte, seed int64) error
	SessionState(id string, at time.Time, state string, terminal bool, errMsg string, retries int, seed int64) error
	SessionPoint(id string, p store.Point) error
	RegistryTotals(t store.Totals) error
}

// HistorySource is the optional query side of a Sink: the persisted
// F̂/D̂/loss-rate series behind GET /v1/sessions/{id}/history.
type HistorySource interface {
	History(id string, from, to time.Time) ([]store.Point, bool)
}

// StatsSource is the optional operational-stats side of a Sink (the
// /v1/store/stats endpoint).
type StatsSource interface {
	Stats() store.Stats
}

// historyReleaser is the optional side of a Sink that drops a deleted
// session's in-memory history (store.Store.ReleaseHistory).
type historyReleaser interface {
	ReleaseHistory(id string)
}

// Config parameterizes a Registry.
type Config struct {
	// MaxSessions caps registered (non-deleted) sessions. Default 256.
	MaxSessions int
	// MaxConcurrent bounds sessions measuring at once; further ones
	// queue in Pending state. Default GOMAXPROCS.
	MaxConcurrent int
	// Store receives durable events (nil disables persistence). If it
	// also implements io.Closer, the registry closes it on Close/Drain —
	// strictly after the last session goroutine joins, so no event is
	// ever appended to a closed store.
	Store Sink
}

// Registry owns the sessions. All methods are safe for concurrent use.
type Registry struct {
	pool *runner.Pool
	cfg  Config

	rootCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string
	nextID   int
	closed   bool

	// store receives durable events; storeOnce guards its close, which
	// must happen exactly once and only after wg (every session monitor
	// goroutine) has joined.
	store     Sink
	storeOnce sync.Once

	totals struct {
		sessionsCreated  atomic.Int64
		sessionsFinished atomic.Int64
		sessionRetries   atomic.Int64
		probesSent       atomic.Int64
		probesLost       atomic.Int64
		packetsSent      atomic.Int64
		packetsLost      atomic.Int64
		experiments      atomic.Int64
		writeFailures    atomic.Int64
	}

	// runOverride substitutes the session body in tests (panic
	// isolation, lifecycle) without simulating a path.
	runOverride func(ctx context.Context, s *Session, seed int64) error
}

// NewRegistry builds a registry with its own worker pool.
func NewRegistry(cfg Config) *Registry {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 256
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Registry{
		pool:     runner.New(runner.Config{Workers: cfg.MaxConcurrent}),
		cfg:      cfg,
		rootCtx:  ctx,
		cancel:   cancel,
		sessions: make(map[string]*Session),
		store:    cfg.Store,
	}
}

// ErrRegistryFull is returned by Create when MaxSessions is reached.
var ErrRegistryFull = errors.New("fleet: session registry full")

// ErrClosed is returned by Create once the registry is closing or
// draining: the daemon is shutting down and accepts no new sessions.
var ErrClosed = errors.New("fleet: registry closed")

// ErrNotFound is returned for unknown session ids.
var ErrNotFound = errors.New("fleet: session not found")

// ErrNotTerminal is returned when deleting a session still in flight.
var ErrNotTerminal = errors.New("fleet: session not terminal; stop it first")

// Create validates the config, registers a session and starts it on the
// pool. The session queues in Pending state until a worker slot frees.
func (r *Registry) Create(cfg SessionConfig) (*Session, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if len(r.sessions) >= r.cfg.MaxSessions {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w (%d registered)", ErrRegistryFull, len(r.sessions))
	}
	r.nextID++
	id := fmt.Sprintf("s%04d", r.nextID)
	if cfg.Name == "" {
		cfg.Name = id
	}
	ctx, cancel := context.WithCancel(r.rootCtx)
	s := &Session{
		ID:      id,
		cfg:     cfg,
		reg:     r,
		cancel:  cancel,
		created: time.Now(),
	}
	s.snap.Kind = cfg.EstimatorKind()
	s.snap.LastSlot = -1
	r.sessions[id] = s
	r.order = append(r.order, id)
	r.wg.Add(1)
	r.mu.Unlock()
	r.totals.sessionsCreated.Add(1)
	if r.store != nil {
		cfgJSON, _ := json.Marshal(cfg)
		r.store.SessionCreated(id, s.created, cfgJSON, cfg.Seed)
		r.store.RegistryTotals(r.Totals())
	}
	r.launch(ctx, s)
	return s, nil
}

// launch submits a registered session to the pool and spawns its monitor
// goroutine (retry loop + terminal transition). The caller has already
// done r.wg.Add(1); the monitor owns the matching Done.
func (r *Registry) launch(ctx context.Context, s *Session) {
	cfg := s.cfg
	id := s.ID
	run := r.runOverride
	if run == nil {
		run = runSession
	}
	submit := func() *runner.Job {
		return r.pool.Start(ctx, []runner.Cell{{
			Key: "fleet/" + id,
			Run: func(ctx context.Context, seed int64) (v any, err error) {
				// Panic isolation: a crashing session must fail alone,
				// not take the daemon down.
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("fleet: session %s panicked: %v", id, p)
					}
				}()
				if cfg.Seed != 0 {
					seed = cfg.Seed
				}
				s.setRunning(seed)
				r.emitState(s)
				return nil, run(ctx, s, seed)
			},
		}})
	}
	// Failed wire sessions re-queue with capped exponential backoff on the
	// same jittered curve the liveness handshake uses. Cancellation is
	// never retried — a stop is a stop.
	backoff := wire.LivenessConfig{
		Attempts:   cfg.MaxRetries + 1,
		Backoff:    time.Duration(cfg.RetryBackoffMillis) * time.Millisecond,
		MaxBackoff: 30 * time.Second,
		Seed:       cfg.Seed,
	}.BackoffSchedule()
	finish := func(err error) {
		s.finish(err)
		r.totals.sessionsFinished.Add(1)
		r.emitState(s)
		if r.store != nil {
			r.store.RegistryTotals(r.Totals())
		}
	}
	go func() {
		defer r.wg.Done()
		job := submit()
		for attempt := 0; ; attempt++ {
			results, _, _ := job.Wait()
			var err error
			if len(results) > 0 {
				err = results[0].Err
			}
			if err == nil || errors.Is(err, context.Canceled) ||
				ctx.Err() != nil || attempt >= cfg.MaxRetries {
				finish(err)
				return
			}
			s.beginRetry()
			r.totals.sessionRetries.Add(1)
			r.emitState(s)
			timer := time.NewTimer(backoff[attempt])
			select {
			case <-ctx.Done():
				timer.Stop()
				finish(ctx.Err())
				return
			case <-timer.C:
			}
			job = submit()
		}
	}()
}

// emitState forwards the session's current lifecycle position to the
// store (no-op without one).
func (r *Registry) emitState(s *Session) {
	if r.store == nil {
		return
	}
	s.mu.Lock()
	state := s.state
	errMsg := ""
	if s.err != nil {
		errMsg = s.err.Error()
	}
	retries := s.retries
	seed := s.seed
	s.mu.Unlock()
	r.store.SessionState(s.ID, time.Now(), state.String(), state.Terminal(), errMsg, retries, seed)
}

// Get returns a session by id.
func (r *Registry) Get(id string) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// List returns all registered sessions in creation order.
func (r *Registry) List() []*Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Session, 0, len(r.sessions))
	for _, id := range r.order {
		if s, ok := r.sessions[id]; ok {
			out = append(out, s)
		}
	}
	return out
}

// Stop cancels a session's context; the session transitions to Stopped
// at its next harvest step (immediately if still Pending). Stopping a
// terminal session is a no-op.
func (r *Registry) Stop(id string) (*Session, error) {
	s, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	s.cancel()
	return s, nil
}

// Delete unregisters a terminal session and has the store release its
// in-memory history, keeping the newest point (the archive on disk is
// untouched). Running or pending sessions must be stopped first
// (ErrNotTerminal).
func (r *Registry) Delete(id string) error {
	if err := r.forget(id); err != nil {
		return err
	}
	for _, s := range unwrapSink(r.store) {
		if hr, ok := s.(historyReleaser); ok {
			hr.ReleaseHistory(id)
			break
		}
	}
	return nil
}

// forget drops a terminal session from the registry.
func (r *Registry) forget(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		return ErrNotFound
	}
	if !s.State().Terminal() {
		return ErrNotTerminal
	}
	delete(r.sessions, id)
	for i, o := range r.order {
		if o == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return nil
}

// StateCounts tallies sessions by state.
func (r *Registry) StateCounts() map[State]int {
	counts := make(map[State]int)
	for _, s := range r.List() {
		counts[s.State()]++
	}
	return counts
}

// Totals returns the lifetime aggregate counters: monotone across
// session deletion and, persisted as they are, across restarts (the
// /metrics counters).
func (r *Registry) Totals() store.Totals {
	return store.Totals{
		SessionsCreated:  r.totals.sessionsCreated.Load(),
		SessionsFinished: r.totals.sessionsFinished.Load(),
		SessionRetries:   r.totals.sessionRetries.Load(),
		ProbesSent:       r.totals.probesSent.Load(),
		ProbesLost:       r.totals.probesLost.Load(),
		PacketsSent:      r.totals.packetsSent.Load(),
		PacketsLost:      r.totals.packetsLost.Load(),
		Experiments:      r.totals.experiments.Load(),
		WriteFailures:    r.totals.writeFailures.Load(),
	}
}

// Workers returns the concurrency bound.
func (r *Registry) Workers() int { return r.pool.Workers() }

// closeStore flushes and closes the event store, exactly once. It must
// only be called after r.wg has joined: a store closed under a live
// session goroutine would race its publish path (the old Drain bug —
// pinned by TestDrainStoreOrdering).
func (r *Registry) closeStore() {
	r.storeOnce.Do(func() {
		if c, ok := r.store.(io.Closer); ok && c != nil {
			c.Close()
		}
	})
}

// Close stops every session and waits for them to wind down, then
// flushes and closes the store. The registry accepts no new sessions
// afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
	r.closeStore()
}

// Drain is the graceful-shutdown form of Close: it stops accepting new
// sessions, cancels every in-flight one (each snapshots its partial
// estimates at the cancellation harvest) and waits up to timeout for them
// to wind down. It reports whether everything finished within the
// deadline; on false the daemon should exit anyway — the deadline exists
// so shutdown is bounded.
//
// The store is flushed and closed only after the last session goroutine
// joins — never at the deadline — so a slow drain cannot race a live
// session's publish against the store shutdown.
func (r *Registry) Drain(timeout time.Duration) bool {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		r.closeStore()
		close(done)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}

// Draining reports whether the registry has stopped accepting sessions.
func (r *Registry) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Session is one measurement in the fleet. Exported fields are immutable
// after creation; everything else is read through accessors.
type Session struct {
	ID  string
	cfg SessionConfig
	reg *Registry

	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	err       error
	created   time.Time
	started   time.Time
	finished  time.Time
	seed      int64
	retries   int
	recovered bool

	snap      estimate.Snapshot
	slotsDone int64
	counters  session.Counters

	// tr is the live measurement substrate, kept so tests can reach the
	// wire collector behind a running session.
	tr session.Transport
}

// State returns the lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Snapshot returns the latest published estimator snapshot. Snapshots
// appear mid-run, at every harvest step.
func (s *Session) Snapshot() estimate.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

func (s *Session) setRunning(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == Pending {
		s.state = Running
		s.started = time.Now()
		s.seed = seed
	}
}

func (s *Session) setSeed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seed = seed
}

func (s *Session) setTransport(tr session.Transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tr = tr
}

// transport returns the session's measurement substrate (nil until the
// session body has built it).
func (s *Session) transport() session.Transport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tr
}

func (s *Session) finish(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.Terminal() {
		return
	}
	s.finished = time.Now()
	switch {
	case err == nil:
		s.state = Done
	case errors.Is(err, context.Canceled):
		s.state = Stopped
	case errors.Is(err, session.ErrPathDead):
		// The far end died mid-run (after any retries). The last
		// published snapshot holds the partial estimates from the alive
		// window; Degraded flags them so the outage is never read as
		// measured loss.
		s.state = Degraded
		s.err = err
	default:
		s.state = Failed
		s.err = err
	}
}

// beginRetry resets a failed session for another attempt: back to Pending
// with a clean snapshot and zeroed counters. The reset bypasses publish —
// the registry's lifetime totals stay monotone; the retry's own probes
// re-accumulate from zero.
func (s *Session) beginRetry() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retries++
	s.state = Pending
	s.started = time.Time{}
	s.err = nil
	s.snap = estimate.Snapshot{Kind: s.cfg.EstimatorKind()}
	s.snap.LastSlot = -1
	s.slotsDone = 0
	s.counters = session.Counters{}
	s.tr = nil
}

// publish shows one harvest step's update and appends it to the
// session's persisted estimate series. The registry's lifetime totals
// advance by the run's progress since prev, the run's previous update,
// which is zero when any run starts, resumed or retried. The counters the
// session showed are no baseline: a resumed session shows the interrupted
// run's counters until its first step, and the restored totals already
// hold them.
func (s *Session) publish(u session.Update, prev session.Counters) {
	c, snap := u.Counters, u.Snapshot
	s.mu.Lock()
	s.snap = snap
	s.slotsDone = u.SlotsDone
	s.counters = c
	s.mu.Unlock()
	t := &s.reg.totals
	t.probesSent.Add(c.ProbesSent - prev.ProbesSent)
	t.probesLost.Add(c.ProbesLost - prev.ProbesLost)
	t.packetsSent.Add(c.PacketsSent - prev.PacketsSent)
	t.packetsLost.Add(c.PacketsLost - prev.PacketsLost)
	t.experiments.Add(c.Experiments - prev.Experiments)
	t.writeFailures.Add(c.WriteFailures - prev.WriteFailures)
	if st := s.reg.store; st != nil {
		pt := store.Point{
			At:          time.Now().UnixNano(),
			SlotsDone:   u.SlotsDone,
			M:           int64(snap.Total.M),
			Frequency:   snap.Total.Frequency,
			Duration:    snap.Total.Duration,
			HasDuration: snap.Total.HasDuration,
			ProbesSent:  c.ProbesSent,
			ProbesLost:  c.ProbesLost,
			PacketsSent: c.PacketsSent,
			PacketsLost: c.PacketsLost,
			Experiments: c.Experiments,
		}
		if ci := snap.FrequencyCI; ci != nil {
			pt.FreqLo, pt.FreqHi = ci.Lo, ci.Hi
			pt.HasFreqCI = true
			pt.CILevel = ci.Level
		}
		if ci := snap.DurationCI; ci != nil {
			pt.DurLo, pt.DurHi = ci.Lo, ci.Hi
			pt.HasDurCI = true
			pt.CILevel = ci.Level
		}
		st.SessionPoint(s.ID, pt)
		st.RegistryTotals(s.reg.Totals())
	}
}

// View is the JSON shape of a session in the HTTP API.
type View struct {
	ID        string            `json:"id"`
	Name      string            `json:"name"`
	State     State             `json:"state"`
	Error     string            `json:"error,omitempty"`
	Config    SessionConfig     `json:"config"`
	Seed      int64             `json:"seed"`
	Created   time.Time         `json:"created"`
	Started   *time.Time        `json:"started,omitempty"`
	Finished  *time.Time        `json:"finished,omitempty"`
	SlotsDone int64             `json:"slots_done"`
	Retries   int               `json:"retries,omitempty"`
	Recovered bool              `json:"recovered,omitempty"`
	Counters  session.Counters  `json:"counters"`
	Snapshot  estimate.Snapshot `json:"snapshot"`
}

// View snapshots the session for the API.
func (s *Session) View() View {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := View{
		ID:        s.ID,
		Name:      s.cfg.Name,
		State:     s.state,
		Config:    s.cfg,
		Seed:      s.seed,
		Created:   s.created,
		SlotsDone: s.slotsDone,
		Retries:   s.retries,
		Recovered: s.recovered,
		Counters:  s.counters,
		Snapshot:  s.snap,
	}
	if s.err != nil {
		v.Error = s.err.Error()
	}
	if !s.started.IsZero() {
		t := s.started
		v.Started = &t
	}
	if !s.finished.IsZero() {
		t := s.finished
		v.Finished = &t
	}
	return v
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
