package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/session"
	"badabing/internal/store"
)

// ErrInterrupted is the failure cause carried by sessions that were
// pending or running when the daemon died and whose spec did not opt
// into resuming (SessionConfig.Resume). Their partial estimates and
// persisted history stand.
var ErrInterrupted = errors.New("fleet: session interrupted by daemon restart")

// RestoreSummary reports what Restore did with the recovered sessions.
type RestoreSummary struct {
	// Terminal sessions were re-registered in their final state; their
	// history is queryable but nothing runs.
	Terminal int
	// Resumed sessions were pending or running at the crash and opted
	// into Resume: they are re-queued and measure again per their spec.
	Resumed int
	// Marked sessions were pending or running but did not opt in: they
	// are now terminal in state Recovered.
	Marked int
	// Skipped sessions could not be restored (undecodable config, id
	// collision); their history remains queryable through the store.
	Skipped int
}

// Restore re-registers sessions recovered from the store's WAL replay
// and restores the lifetime totals, so a restarted daemon carries on
// where the previous process stopped:
//
//   - terminal sessions come back in their final state with their last
//     snapshot, counters and full persisted history;
//   - interrupted (pending/running) sessions whose spec set Resume are
//     re-queued and measured again, appending to the same history;
//   - other interrupted sessions go terminal in state Recovered.
//
// Restore must run before the registry serves traffic (sessions created
// later take ids above the recovered ones). It is not an error to call
// it with no recovered sessions.
func (r *Registry) Restore(info store.RecoveryInfo) RestoreSummary {
	r.restoreTotals(info.Totals)
	var sum RestoreSummary
	for _, rec := range info.Sessions {
		switch r.restoreSession(rec) {
		case restoreTerminal:
			sum.Terminal++
		case restoreResumed:
			sum.Resumed++
		case restoreMarked:
			sum.Marked++
		default:
			sum.Skipped++
		}
	}
	return sum
}

// restoreTotals seeds the lifetime counters with the persisted values so
// /metrics totals are monotone across restarts.
func (r *Registry) restoreTotals(t store.Totals) {
	r.totals.sessionsCreated.Add(t.SessionsCreated)
	r.totals.sessionsFinished.Add(t.SessionsFinished)
	r.totals.sessionRetries.Add(t.SessionRetries)
	r.totals.probesSent.Add(t.ProbesSent)
	r.totals.probesLost.Add(t.ProbesLost)
	r.totals.packetsSent.Add(t.PacketsSent)
	r.totals.packetsLost.Add(t.PacketsLost)
	r.totals.experiments.Add(t.Experiments)
	r.totals.writeFailures.Add(t.WriteFailures)
}

type restoreOutcome int

const (
	restoreSkipped restoreOutcome = iota
	restoreTerminal
	restoreResumed
	restoreMarked
)

// archivedConfig decodes and checks a session spec read back from the
// archive, with the create endpoint's defaults and validation.
func archivedConfig(b []byte) (SessionConfig, error) {
	var cfg SessionConfig
	// Unlike the create endpoint's, this decoder accepts unknown fields:
	// an archived config may carry a retired field such as disable_batch,
	// and its session must still restore (TestDisableBatchRetired).
	if err := json.Unmarshal(b, &cfg); err != nil {
		return cfg, err
	}
	cfg.applyDefaults()
	return cfg, cfg.Validate()
}

func (r *Registry) restoreSession(rec store.Session) restoreOutcome {
	// Even a session we cannot re-register must keep its id number
	// reserved: its history is still in the archive, and a fresh session
	// minted under the same id would append to it.
	defer r.reserveID(rec.ID)
	cfg, err := archivedConfig(rec.ConfigJSON)
	if err != nil {
		return restoreSkipped
	}
	if rec.Seed != 0 {
		// Pin the recovered seed so a resumed run re-draws the same
		// schedule the interrupted one was measuring.
		cfg.Seed = rec.Seed
	}

	state, known := stateFromString(rec.State)
	if !known {
		state = Failed
	}

	ctx, cancel := context.WithCancel(r.rootCtx)
	s := &Session{
		ID:        rec.ID,
		cfg:       cfg,
		reg:       r,
		cancel:    cancel,
		created:   orNow(rec.Created),
		seed:      rec.Seed,
		retries:   rec.Retries,
		recovered: true,
		started:   rec.Started,
	}
	s.snap.Kind = cfg.EstimatorKind()
	s.snap.LastSlot = -1
	if rec.Points > 0 {
		s.snap = snapshotOfPoint(cfg.EstimatorKind(), rec.LastPoint)
		s.slotsDone = rec.LastPoint.SlotsDone
		s.counters = countersOfPoint(rec.LastPoint)
	}

	resume := false
	switch {
	case state.Terminal():
		s.state = state
		s.finished = orNow(rec.Finished)
		if rec.Err != "" {
			s.err = errors.New(rec.Err)
		}
	case cfg.Resume:
		s.state = Pending
		s.started = time.Time{}
		resume = true
	default:
		s.state = Recovered
		s.err = ErrInterrupted
		s.finished = time.Now()
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		cancel()
		return restoreSkipped
	}
	if _, exists := r.sessions[rec.ID]; exists {
		r.mu.Unlock()
		cancel()
		return restoreSkipped
	}
	r.sessions[rec.ID] = s
	r.order = append(r.order, rec.ID)
	if resume {
		r.wg.Add(1)
	}
	r.mu.Unlock()

	switch {
	case resume:
		r.launch(ctx, s)
		return restoreResumed
	case state.Terminal():
		cancel()
		return restoreTerminal
	default:
		cancel()
		// Tell the archive the interruption is now a terminal fact, so
		// the next restart replays it as such.
		r.emitState(s)
		return restoreMarked
	}
}

// snapshotOfPoint rebuilds the live-view snapshot from the last
// persisted point (total estimates only: the window has aged out),
// including any persisted bootstrap confidence bounds.
func snapshotOfPoint(kind string, p store.Point) estimate.Snapshot {
	est := badabing.Estimates{
		M:           int(p.M),
		Frequency:   p.Frequency,
		Duration:    p.Duration,
		HasDuration: p.HasDuration,
	}
	snap := estimate.Snapshot{Kind: kind}
	snap.Total = est
	snap.Window = est
	snap.LastSlot = -1
	if p.HasFreqCI {
		snap.FrequencyCI = &badabing.Interval{Lo: p.FreqLo, Hi: p.FreqHi, Level: p.CILevel}
	}
	if p.HasDurCI {
		snap.DurationCI = &badabing.Interval{Lo: p.DurLo, Hi: p.DurHi, Level: p.CILevel}
	}
	return snap
}

func countersOfPoint(p store.Point) session.Counters {
	return session.Counters{
		ProbesSent:  p.ProbesSent,
		ProbesLost:  p.ProbesLost,
		PacketsSent: p.PacketsSent,
		PacketsLost: p.PacketsLost,
		Experiments: p.Experiments,
	}
}

// reserveID keeps the id allocator above every recovered id, whether or
// not the session was re-registered.
func (r *Registry) reserveID(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := idNumber(id); n > r.nextID {
		r.nextID = n
	}
}

// idNumber parses the numeric part of a generated session id ("s0042"
// → 42), 0 for foreign ids.
func idNumber(id string) int {
	if !strings.HasPrefix(id, "s") {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, "s"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

func orNow(t time.Time) time.Time {
	if t.IsZero() {
		return time.Now()
	}
	return t
}

// unwrapSink walks wrapper sinks (the circuit breaker, chaos
// injectors) down to the real store, returning every layer so callers
// can probe each for a query interface. Middleware exposes its inner
// sink as either `Unwrap() Sink` (fleet's own wrappers) or
// `Unwrap() any` (wrappers that cannot import fleet).
func unwrapSink(s Sink) []Sink {
	chain := []Sink{s}
	for s != nil {
		switch u := s.(type) {
		case interface{ Unwrap() Sink }:
			s = u.Unwrap()
		case interface{ Unwrap() any }:
			next, ok := u.Unwrap().(Sink)
			if !ok {
				return chain
			}
			s = next
		default:
			return chain
		}
		chain = append(chain, s)
	}
	return chain
}

// HistorySourceOf returns the query side of the registry's store
// (unwrapping breaker middleware), nil when persistence is disabled or
// the sink cannot serve history.
func (r *Registry) HistorySourceOf() HistorySource {
	for _, s := range unwrapSink(r.store) {
		if hs, ok := s.(HistorySource); ok {
			return hs
		}
	}
	return nil
}

// StatsSourceOf returns the stats side of the registry's store
// (unwrapping breaker middleware), nil when unavailable.
func (r *Registry) StatsSourceOf() StatsSource {
	for _, s := range unwrapSink(r.store) {
		if ss, ok := s.(StatsSource); ok {
			return ss
		}
	}
	return nil
}
