// Package wiretransport adapts the UDP sender/collector pair to the
// session engine's Transport interface, measuring the round trip to an
// echoing far end (wire.Reflector or any dumb echo service): probes are
// paced onto their slot deadlines by a goroutine while the collector logs
// the reflected stream on the same socket, and AdvanceTo sleeps on the
// wall clock.
//
// The transport is failure-aware. Loss is BADABING's measurement signal,
// so infrastructure failure must be detected out-of-band or it corrupts
// the estimates as a fake loss episode:
//
//   - Launch runs a liveness handshake (ping/pong with retry, exponential
//     backoff and jitter) before the first probe, so a refused or dead far
//     end fails fast instead of "measuring" a ghost path.
//   - A watchdog in AdvanceTo watches for an unbroken trailing run of
//     unanswered probes — the signature of a dead far end, which scattered
//     path loss essentially never produces — and confirms with a liveness
//     re-check routed through the collector before declaring the path dead
//     (session.ErrPathDead).
//   - Once the path is declared dead, Observations truncates after the
//     last fully answered probe before the death point: the outage is
//     unmeasured, not loss, and is excluded from the partial estimates
//     the session engine flags as aborted.
package wiretransport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/session"
	"badabing/internal/wire"
)

// WatchdogConfig tunes the mid-run dead-path detector.
type WatchdogConfig struct {
	// Disable turns the watchdog off (the liveness handshake at Launch
	// is governed separately by Options.SkipHandshake).
	Disable bool
	// ConsecutiveProbes is how many trailing probes must be unanswered
	// in an unbroken run before the far end is suspected dead. Default
	// 20 — at any plausible per-probe loss rate the chance of that many
	// consecutive fully-lost probes on a merely lossy path is nil.
	ConsecutiveProbes int
	// Grace is how long after a probe's slot deadline its reflection may
	// still legitimately be in flight; probes younger than this are not
	// counted as unanswered. Default 500ms.
	Grace time.Duration
	// Recheck parameterizes the confirming liveness probe (attempts,
	// per-attempt timeout, backoff). The zero value takes the handshake
	// defaults with 3 attempts.
	Recheck wire.LivenessConfig
}

func (w *WatchdogConfig) applyDefaults() {
	if w.ConsecutiveProbes == 0 {
		w.ConsecutiveProbes = 20
	}
	if w.Grace == 0 {
		w.Grace = 500 * time.Millisecond
	}
	if w.Recheck.Attempts == 0 {
		w.Recheck.Attempts = 3
	}
}

// Options bundle the failure-handling knobs of a transport.
type Options struct {
	// Liveness tunes the pre-session handshake's retry schedule.
	Liveness wire.LivenessConfig
	// SkipHandshake starts probing without proving the far end alive
	// (for paths whose far end predates the liveness protocol).
	SkipHandshake bool
	// Watchdog tunes the mid-run dead-path detector.
	Watchdog WatchdogConfig
}

// Transport drives a BADABING session over a real UDP path. Construct it
// with Dial or DialOptions, hand it to session.Run, then Close it.
type Transport struct {
	cfg  wire.SenderConfig
	opts Options
	conn *net.UDPConn
	col  *wire.Collector

	start time.Time
	slots []int64

	writeFails atomic.Int64
	pingNonce  atomic.Uint64

	mu       sync.Mutex
	sent     int // slots[:sent] have been emitted
	sendErr  error
	stats    wire.SendStats
	launched bool
	deadFrom time.Duration // session time the path died; -1 while alive
	done     chan struct{}
}

// Dial connects a UDP socket to target and prepares a round-trip
// measurement transport with default failure handling. cfg must carry the
// session's exact schedule parameters (P, N, Slot, Improved, Seed — in
// particular a non-zero Seed equal to the session Config's), since they
// are stamped into the wire header and the collector's own batch reports
// re-derive the schedule from them.
func Dial(target string, cfg wire.SenderConfig) (*Transport, error) {
	return DialOptions(target, cfg, Options{})
}

// DialOptions is Dial with explicit liveness and watchdog tuning.
func DialOptions(target string, cfg wire.SenderConfig, opts Options) (*Transport, error) {
	if cfg.Seed == 0 {
		return nil, fmt.Errorf("wiretransport: seed must be pinned to the session's schedule seed")
	}
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	opts.Watchdog.applyDefaults()
	raddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, fmt.Errorf("wiretransport: resolve %s: %w", target, err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("wiretransport: dial %s: %w", target, err)
	}
	return &Transport{
		cfg:      cfg,
		opts:     opts,
		conn:     conn,
		col:      wire.NewCollector(conn),
		deadFrom: -1,
		done:     make(chan struct{}),
	}, nil
}

// countingConn counts failed probe writes as they happen, so the daemon's
// /metrics see write failures live rather than at session end.
type countingConn struct {
	*net.UDPConn
	fails *atomic.Int64
	bw    wire.BatchWriter
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.UDPConn.Write(b)
	if err != nil {
		c.fails.Add(1)
	}
	return n, err
}

// WriteBatch exposes the socket's sendmmsg fast path to the sender.
// Batch shortfalls need no counting here: the sender retries the
// remainder through Write, which counts per packet.
func (c countingConn) WriteBatch(ms []wire.Message) (int, error) {
	if c.bw == nil {
		return 0, wire.ErrBatchUnsupported
	}
	return c.bw.WriteBatch(ms)
}

// Launch proves the far end alive (unless opted out), then starts the
// collector loop and the pacing goroutine. The launch instant becomes
// session time zero. A failed handshake returns an error wrapping both
// wire.ErrNotAlive and session.ErrPathDead — the session must not start.
func (t *Transport) Launch(ctx context.Context, slots []int64) error {
	t.mu.Lock()
	if t.launched {
		t.mu.Unlock()
		return fmt.Errorf("wiretransport: already launched")
	}
	t.launched = true
	t.mu.Unlock()

	if !t.opts.SkipHandshake {
		if _, err := wire.Handshake(ctx, t.conn, t.opts.Liveness); err != nil {
			if errors.Is(err, wire.ErrNotAlive) {
				err = fmt.Errorf("%w: %w", session.ErrPathDead, err)
			}
			return fmt.Errorf("wiretransport: liveness handshake with %s: %w", t.conn.RemoteAddr(), err)
		}
	}

	t.mu.Lock()
	t.slots = slots
	t.start = time.Now()
	t.mu.Unlock()
	go t.col.Run()
	go func() {
		defer close(t.done)
		sendConn := countingConn{UDPConn: t.conn, fails: &t.writeFails}
		if !t.cfg.DisableBatch {
			sendConn.bw = wire.NewBatchWriter(t.conn)
		}
		st, err := wire.SendSlots(ctx, sendConn, t.cfg, slots, t.start, func(i int, slot int64) {
			t.mu.Lock()
			t.sent = i + 1
			t.mu.Unlock()
		})
		t.mu.Lock()
		t.stats = st
		t.sendErr = err
		t.mu.Unlock()
	}()
	return nil
}

// Now returns the wall-clock time elapsed since Launch.
func (t *Transport) Now() time.Duration {
	t.mu.Lock()
	start := t.start
	t.mu.Unlock()
	if start.IsZero() {
		return 0
	}
	return time.Since(start)
}

// AdvanceTo sleeps until session time tt, then surfaces any error the
// pacing goroutine hit (a dead sender would otherwise stall the session
// silently until its horizon) and runs the dead-path watchdog.
func (t *Transport) AdvanceTo(ctx context.Context, tt time.Duration) error {
	t.mu.Lock()
	start := t.start
	t.mu.Unlock()
	if wait := time.Until(start.Add(tt)); wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
	t.mu.Lock()
	err := t.sendErr
	stats := t.stats
	t.mu.Unlock()
	if err != nil && err != context.Canceled {
		if errors.Is(err, session.ErrPathDead) && stats.DeadSlot >= 0 {
			// The sender died on an unbroken write-failure run: the
			// path was last proven alive before that run began.
			t.markDead(time.Duration(stats.DeadSlot) * t.cfg.Slot)
		}
		return fmt.Errorf("wiretransport: sender: %w", err)
	}
	if !t.opts.Watchdog.Disable {
		if err := t.watchdog(ctx); err != nil {
			return err
		}
	}
	return nil
}

// markDead records the session time the path died (first call wins).
func (t *Transport) markDead(at time.Duration) {
	t.mu.Lock()
	if t.deadFrom < 0 {
		t.deadFrom = at
	}
	t.mu.Unlock()
}

// DeadFrom returns the session time the path was declared dead, or -1
// while it is considered alive.
func (t *Transport) DeadFrom() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deadFrom
}

// watchdog distinguishes "lossy path" from "far end dead": scattered loss
// leaves answered probes interleaved with lost ones, while a dead far end
// produces an unbroken trailing run of unanswered probes. When such a run
// reaches the configured length, a liveness re-check (pings routed
// through the collector) gets the final say: answered means merely an
// extreme loss episode — keep measuring, the estimator is built for
// exactly that — unanswered means infrastructure failure.
func (t *Transport) watchdog(ctx context.Context) error {
	t.mu.Lock()
	start, sent, slots, dead := t.start, t.sent, t.slots, t.deadFrom
	t.mu.Unlock()
	if dead >= 0 || start.IsZero() || sent == 0 {
		return nil
	}
	wd := t.opts.Watchdog

	// Only probes whose reflection has had Grace to come home count.
	dueBy := time.Since(start) - wd.Grace
	emitted := slots[:sent]
	received := t.col.ReceivedSlots(t.cfg.ExpID)
	run := 0
	var runStart int64 = -1
	for i := len(emitted) - 1; i >= 0; i-- {
		slot := emitted[i]
		if time.Duration(slot)*t.cfg.Slot > dueBy {
			continue
		}
		if received[slot] > 0 {
			break
		}
		run++
		runStart = slot
	}
	if run < wd.ConsecutiveProbes {
		return nil
	}

	if t.recheckAlive(ctx) {
		return nil
	}
	diedAt := time.Duration(runStart) * t.cfg.Slot
	t.markDead(diedAt)
	return fmt.Errorf("wiretransport: watchdog: %d consecutive probes unanswered since slot %d and liveness re-check failed: %w",
		run, runStart, session.ErrPathDead)
}

// recheckAlive sends liveness pings and watches the collector for the
// pong (the collector owns the socket's read side mid-run). Any pong
// arriving after the first ping counts.
func (t *Transport) recheckAlive(ctx context.Context) bool {
	re := t.opts.Watchdog.Recheck
	re.Seed = t.cfg.Seed + 1 // deterministic jitter, decoupled from the schedule
	re = re.WithDefaults()
	sched := re.BackoffSchedule()
	started := time.Now()
	for attempt := 0; attempt < len(sched); attempt++ {
		nonce := t.cfg.ExpID<<16 | t.pingNonce.Add(1)
		if err := wire.Ping(t.conn, nonce); err == nil {
			// Poll for the pong for the attempt's timeout.
			deadline := time.Now().Add(re.Timeout)
			for time.Now().Before(deadline) {
				if _, at, ok := t.col.LastPong(); ok && at.After(started) {
					return true
				}
				select {
				case <-ctx.Done():
					return false
				case <-time.After(10 * time.Millisecond):
				}
			}
		}
		if attempt < len(sched)-1 {
			select {
			case <-ctx.Done():
				return false
			case <-time.After(sched[attempt]):
			}
		}
	}
	_, at, ok := t.col.LastPong()
	return ok && at.After(started)
}

// Observations assembles per-probe outcomes for every probe emitted so
// far from the collector's log of the reflected stream, including the
// collector's pacing-lag invalidation and clock-skew correction. Once the
// path has been declared dead, observations are truncated (see
// answeredPrefix): the probes after it are unmeasured — infrastructure
// failure — and must not enter the estimates as loss.
func (t *Transport) Observations() ([]badabing.ProbeObs, map[int64]bool) {
	t.mu.Lock()
	emitted := t.slots[:t.sent]
	dead := t.deadFrom
	t.mu.Unlock()
	obs, invalid, _ := t.col.AssembleObs(t.cfg.ExpID, emitted, t.cfg.PacketsPerProbe, t.cfg.Slot)
	if dead >= 0 {
		obs = answeredPrefix(obs, dead)
	}
	return obs, invalid
}

// answeredPrefix cuts a dead path's observations after the last probe,
// sent before the death point dead, whose every packet came back: the
// far end provably lived through it. The detection point alone is too
// late. Probes in flight as the far end died, and probes written before
// the sender's terminal run of write failures began, are lost to the
// outage, and a probe answered only in part may have straddled it.
func answeredPrefix(obs []badabing.ProbeObs, dead time.Duration) []badabing.ProbeObs {
	n := 0
	for i, o := range obs {
		if o.T >= dead {
			break
		}
		if o.LostPackets == 0 {
			n = i + 1
		}
	}
	return obs[:n]
}

// Close shuts the socket, terminating the collector loop and (if still
// running) the pacer, and waits for the pacer to exit.
func (t *Transport) Close() error {
	err := t.col.Close()
	t.mu.Lock()
	launched := t.launched
	start := t.start
	t.mu.Unlock()
	if launched && !start.IsZero() {
		<-t.done
	}
	return err
}

// Collector exposes the underlying collector so callers can run batch
// reports or snapshots against the same observation log.
func (t *Transport) Collector() *wire.Collector { return t.col }

// ExpID returns the session id stamped on the probes.
func (t *Transport) ExpID() uint64 { return t.cfg.ExpID }

// LocalAddr returns the probing socket's local address.
func (t *Transport) LocalAddr() net.Addr { return t.conn.LocalAddr() }

// WriteFailures returns how many probe writes the socket has rejected so
// far. Live — the daemon surfaces it in /metrics while sessions run.
func (t *Transport) WriteFailures() int64 { return t.writeFails.Load() }

// SendStats returns the pacer's summary; valid once the session is done.
func (t *Transport) SendStats() wire.SendStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}
