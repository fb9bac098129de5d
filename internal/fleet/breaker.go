package fleet

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"badabing/internal/health"
	"badabing/internal/obs"
	"badabing/internal/store"
)

// BreakerState is the store circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed forwards every event straight to the inner sink.
	BreakerClosed BreakerState = iota
	// BreakerOpen buffers events in the in-memory spill; periodic
	// recovery probes replay the spill into the inner sink and close
	// the breaker once it drains.
	BreakerOpen
)

func (s BreakerState) String() string {
	if s == BreakerOpen {
		return "open"
	}
	return "closed"
}

// StoreComponent is the health-monitor component the breaker reports
// under.
const StoreComponent = "store"

// BreakerConfig parameterizes a BreakerSink.
type BreakerConfig struct {
	// Threshold is how many consecutive append failures trip the
	// breaker. Default 3.
	Threshold int
	// SpillCapacity bounds the in-memory spill buffer (events). Beyond
	// it new events are dropped and counted — the archive has visibly
	// lost history, and the health component escalates to failing so
	// admission sheds new sessions. Default 4096.
	SpillCapacity int
	// ProbeInterval is the recovery-probe cadence while events are
	// spilled. Default 1s.
	ProbeInterval time.Duration
	// Health, when set, receives the breaker's state under
	// StoreComponent: ok (closed), degraded (open, spilling), failing
	// (spill overflowed).
	Health *health.Monitor
	// Log receives one structured line per state transition (nil
	// discards).
	Log *slog.Logger
}

func (c *BreakerConfig) applyDefaults() {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.SpillCapacity <= 0 {
		c.SpillCapacity = 4096
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.Log == nil {
		c.Log = obs.Discard
	}
}

// spillEvent is one buffered sink call, replayed verbatim (original
// timestamps and values) so post-recovery history is identical to an
// unimpaired run.
type spillEvent struct {
	kind    byte // 'c' created, 's' state, 'p' point, 't' totals
	id      string
	at      time.Time
	cfgJSON []byte
	seed    int64
	state   string
	term    bool
	errMsg  string
	retries int
	point   store.Point
	totals  store.Totals
}

// BreakerSink wraps a Sink in a circuit breaker: persistent append
// errors (disk full, I/O error) trip it into a bounded in-memory spill
// buffer, and periodic recovery probes replay the spill — in original
// order, with original timestamps — once writes succeed again. A full
// disk therefore degrades durability visibly (health, metrics, spill
// depth) instead of silently dropping history.
//
// Ordering invariant: once any event is spilled, every later event
// spills behind it until the buffer fully drains, so the inner sink
// always observes events in publish order.
type BreakerSink struct {
	inner Sink
	cfg   BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	fails    int // consecutive forward failures
	spill    []spillEvent
	draining bool // a drain is in flight (it yields mu between chunks)
	lastErr  error

	trips       atomic.Int64
	spilled     atomic.Int64
	replayed    atomic.Int64
	dropped     atomic.Int64
	writeErrors atomic.Int64
	depth       atomic.Int64

	stop     chan struct{}
	loopDone sync.WaitGroup
}

// NewBreakerSink wraps inner and starts the recovery-probe loop. Close
// stops the loop, makes a final replay attempt and closes inner if it
// is an io.Closer.
func NewBreakerSink(inner Sink, cfg BreakerConfig) *BreakerSink {
	cfg.applyDefaults()
	b := &BreakerSink{inner: inner, cfg: cfg, stop: make(chan struct{})}
	b.reportHealth()
	b.loopDone.Add(1)
	go b.probeLoop()
	return b
}

// Unwrap returns the wrapped sink (the registry resolves History/Stats
// query interfaces through it).
func (b *BreakerSink) Unwrap() Sink { return b.inner }

// SessionCreated implements Sink.
func (b *BreakerSink) SessionCreated(id string, at time.Time, cfgJSON []byte, seed int64) error {
	return b.deliver(spillEvent{kind: 'c', id: id, at: at, cfgJSON: append([]byte(nil), cfgJSON...), seed: seed})
}

// SessionState implements Sink.
func (b *BreakerSink) SessionState(id string, at time.Time, state string, terminal bool, errMsg string, retries int, seed int64) error {
	return b.deliver(spillEvent{kind: 's', id: id, at: at, state: state, term: terminal, errMsg: errMsg, retries: retries, seed: seed})
}

// SessionPoint implements Sink.
func (b *BreakerSink) SessionPoint(id string, p store.Point) error {
	return b.deliver(spillEvent{kind: 'p', id: id, point: p})
}

// RegistryTotals implements Sink.
func (b *BreakerSink) RegistryTotals(t store.Totals) error {
	return b.deliver(spillEvent{kind: 't', totals: t})
}

// forward replays one event into the inner sink.
func (b *BreakerSink) forward(ev spillEvent) error {
	switch ev.kind {
	case 'c':
		return b.inner.SessionCreated(ev.id, ev.at, ev.cfgJSON, ev.seed)
	case 's':
		return b.inner.SessionState(ev.id, ev.at, ev.state, ev.term, ev.errMsg, ev.retries, ev.seed)
	case 'p':
		return b.inner.SessionPoint(ev.id, ev.point)
	default:
		return b.inner.RegistryTotals(ev.totals)
	}
}

// deliver is the single write path: forward while healthy, spill while
// tripped (or while earlier events are still queued, preserving order).
// It always returns nil — the breaker IS the error policy; failures are
// surfaced through health, metrics and Stats instead of the caller.
func (b *BreakerSink) deliver(ev spillEvent) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerClosed && len(b.spill) > 0 {
		// Below-threshold failures left events queued: retry them inline
		// so a transient blip drains without waiting for the probe loop,
		// while a persistent fault accumulates the consecutive failures
		// that trip the breaker.
		b.drainLocked()
	}
	if b.state == BreakerOpen || len(b.spill) > 0 {
		b.spillLocked(ev)
		return nil
	}
	if err := b.forward(ev); err != nil {
		b.noteFailureLocked(err)
		b.spillLocked(ev)
		return nil
	}
	b.fails = 0
	return nil
}

// noteFailureLocked counts one forward failure and trips the breaker at
// the threshold.
func (b *BreakerSink) noteFailureLocked(err error) {
	b.writeErrors.Add(1)
	b.lastErr = err
	b.fails++
	if b.state == BreakerClosed && b.fails >= b.cfg.Threshold {
		b.state = BreakerOpen
		b.trips.Add(1)
		b.cfg.Log.Error("store breaker open",
			"consecutive_failures", b.fails, "err", err)
		b.reportHealth()
	}
}

// spillLocked buffers one event, dropping (and counting) it when the
// buffer is full.
func (b *BreakerSink) spillLocked(ev spillEvent) {
	if len(b.spill) >= b.cfg.SpillCapacity {
		if b.dropped.Add(1) == 1 {
			b.cfg.Log.Error("store breaker spill full; dropping history",
				"capacity", b.cfg.SpillCapacity)
			b.reportHealth()
		}
		return
	}
	b.spill = append(b.spill, ev)
	b.spilled.Add(1)
	b.depth.Store(int64(len(b.spill)))
}

// probeLoop periodically attempts recovery while events are spilled.
func (b *BreakerSink) probeLoop() {
	defer b.loopDone.Done()
	t := time.NewTicker(b.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.Probe()
		}
	}
}

// Probe attempts recovery now: it replays the spill head-first into the
// inner sink, stopping at the first failure. When the buffer drains the
// breaker closes. Probe reports whether the breaker is closed with an
// empty spill afterwards. The loop calls this on ProbeInterval; tests
// call it directly for determinism.
func (b *BreakerSink) Probe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drainLocked()
}

// drainChunk bounds how many spilled events a drain replays per mutex
// hold: between chunks the drain yields b.mu so concurrent deliver
// calls spill behind the queue instead of stalling for the whole
// replay (a full spill can be thousands of events, each fsynced).
const drainChunk = 64

// drainLocked replays the spill head-first into the inner sink in
// bounded chunks, stopping at the first failure (which counts toward
// the trip threshold), and closes the breaker when the buffer empties.
// It reports whether the breaker is closed with an empty spill. At most
// one drain runs at a time: because the mutex is yielded between
// chunks, a second caller backs off instead of replaying the same head.
func (b *BreakerSink) drainLocked() bool {
	if b.draining {
		return false
	}
	b.draining = true
	defer func() { b.draining = false }()
	replayedNow := 0
	for len(b.spill) > 0 {
		for n := 0; n < drainChunk && len(b.spill) > 0; n++ {
			if err := b.forward(b.spill[0]); err != nil {
				// Still failing: keep the remainder for the next attempt.
				b.noteFailureLocked(err)
				b.depth.Store(int64(len(b.spill)))
				return false
			}
			b.fails = 0
			b.spill = b.spill[1:]
			b.replayed.Add(1)
			replayedNow++
		}
		if len(b.spill) > 0 {
			b.depth.Store(int64(len(b.spill)))
			b.mu.Unlock()
			b.mu.Lock()
		}
	}
	b.spill = nil
	b.depth.Store(0)
	if b.state == BreakerOpen {
		b.state = BreakerClosed
		b.cfg.Log.Info("store breaker closed", "replayed", replayedNow)
		b.reportHealth()
	}
	return b.state == BreakerClosed
}

// reportHealth feeds the breaker's condition into the health monitor.
// Spill overflow escalates to failing: history is being lost, so new
// sessions must be shed rather than measured unauditable.
func (b *BreakerSink) reportHealth() {
	if b.cfg.Health == nil {
		return
	}
	switch {
	case b.state == BreakerClosed && b.dropped.Load() == 0:
		b.cfg.Health.Set(StoreComponent, health.Ok, "")
	case b.state == BreakerClosed:
		// Recovered, but history was dropped while open: degraded until
		// an operator acknowledges (restarts) — the gap is permanent.
		b.cfg.Health.Set(StoreComponent, health.Degraded,
			fmt.Sprintf("breaker closed; %d events dropped during outage", b.dropped.Load()))
	case b.dropped.Load() > 0:
		b.cfg.Health.Set(StoreComponent, health.Failing,
			fmt.Sprintf("store breaker open, spill full (%d events dropped)", b.dropped.Load()))
	default:
		reason := "store breaker open; spilling to memory"
		if b.lastErr != nil {
			reason = fmt.Sprintf("store breaker open (%v); spilling to memory", b.lastErr)
		}
		b.cfg.Health.Set(StoreComponent, health.Degraded, reason)
	}
}

// BreakerStats is the breaker's operational snapshot.
type BreakerStats struct {
	State         string `json:"state"`
	Trips         int64  `json:"trips"`
	SpillDepth    int64  `json:"spill_depth"`
	SpillCapacity int    `json:"spill_capacity"`
	Spilled       int64  `json:"spilled_total"`
	Replayed      int64  `json:"replayed_total"`
	Dropped       int64  `json:"dropped_total"`
	WriteErrors   int64  `json:"write_errors_total"`
	LastError     string `json:"last_error,omitempty"`
}

// Stats snapshots the breaker's counters.
func (b *BreakerSink) Stats() BreakerStats {
	b.mu.Lock()
	state := b.state
	lastErr := ""
	if b.lastErr != nil {
		lastErr = b.lastErr.Error()
	}
	b.mu.Unlock()
	return BreakerStats{
		State:         state.String(),
		Trips:         b.trips.Load(),
		SpillDepth:    b.depth.Load(),
		SpillCapacity: b.cfg.SpillCapacity,
		Spilled:       b.spilled.Load(),
		Replayed:      b.replayed.Load(),
		Dropped:       b.dropped.Load(),
		WriteErrors:   b.writeErrors.Load(),
		LastError:     lastErr,
	}
}

// RegisterMetrics registers the breaker's metric families; each scrape
// mirrors a Stats snapshot.
func (b *BreakerSink) RegisterMetrics(o *obs.Registry) {
	open := o.Gauge("badabingd_store_breaker_open", "1 while the store circuit breaker is open (WAL writes failing, events spilling to memory).")
	trips := o.Counter("badabingd_store_breaker_trips_total", "Times the store circuit breaker tripped open.")
	depth := o.Gauge("badabingd_store_spill_depth", "Events currently buffered in the breaker's in-memory spill.")
	spilled := o.Counter("badabingd_store_spilled_total", "Events ever diverted to the in-memory spill.")
	replayed := o.Counter("badabingd_store_spill_replayed_total", "Spilled events replayed into the WAL after recovery.")
	dropped := o.Counter("badabingd_store_spill_dropped_total", "Events dropped because the spill buffer was full (permanent history loss).")
	o.OnScrape(func() {
		st := b.Stats()
		if st.State == "open" {
			open.SetInt(1)
		} else {
			open.SetInt(0)
		}
		trips.Set(float64(st.Trips))
		depth.SetInt(st.SpillDepth)
		spilled.Set(float64(st.Spilled))
		replayed.Set(float64(st.Replayed))
		dropped.Set(float64(st.Dropped))
	})
}

// Close stops the probe loop, makes a final replay attempt and closes
// the inner sink if it is closable. Events still spilled at close are
// counted as dropped — they never reached stable storage.
func (b *BreakerSink) Close() error {
	close(b.stop)
	b.loopDone.Wait()
	b.Probe()
	b.mu.Lock()
	if n := len(b.spill); n > 0 {
		b.dropped.Add(int64(n))
		b.cfg.Log.Warn("store breaker closing with unreplayed spill; events lost", "events", n)
		b.spill = nil
		b.depth.Store(0)
	}
	inner := b.inner
	b.mu.Unlock()
	if c, ok := inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
