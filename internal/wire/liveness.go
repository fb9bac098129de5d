package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// Liveness handshake: before a measurement session starts (and whenever a
// watchdog suspects the far end died mid-run), the sender exchanges a tiny
// ping/pong with the far end over the probing socket. BADABING treats loss
// as the signal, so infrastructure failure — a dead reflector, a crashed
// collector, an unplugged path — must be detected out-of-band: without the
// handshake, an unreachable far end is indistinguishable from a
// perfectly-measured F≈1 loss episode.
//
// Both the Reflector and the Collector answer pings with pongs. A dumb
// echo service that merely bounces the ping back verbatim also proves
// liveness: the sender accepts either a pong or its own ping echoed with a
// matching nonce.

// LivenessMagic identifies liveness frames (pings and pongs).
const LivenessMagic uint32 = 0x42424C56 // "BBLV"

// Liveness frame kinds.
const (
	livenessPing = 1
	livenessPong = 2
)

// livenessSize is the fixed frame size: magic, version, kind, pad×2,
// nonce, send time.
const livenessSize = 24

// putLiveness encodes a liveness frame into buf (≥ livenessSize bytes)
// without allocating, returning the frame length. The reflector's pong
// path runs it against pooled per-shard scratch buffers, keeping the
// echo loop allocation-free.
func putLiveness(buf []byte, kind uint8, nonce uint64, sendTime int64) int {
	_ = buf[livenessSize-1]
	binary.BigEndian.PutUint32(buf[0:], LivenessMagic)
	buf[4] = Version
	buf[5] = kind
	buf[6], buf[7] = 0, 0
	binary.BigEndian.PutUint64(buf[8:], nonce)
	binary.BigEndian.PutUint64(buf[16:], uint64(sendTime))
	return livenessSize
}

// marshalLiveness builds a liveness frame on a fresh buffer (control
// paths only; the hot path uses putLiveness).
func marshalLiveness(kind uint8, nonce uint64, sendTime int64) []byte {
	buf := make([]byte, livenessSize)
	putLiveness(buf, kind, nonce, sendTime)
	return buf
}

// parseLiveness decodes a liveness frame, reporting whether the bytes are
// one. Unknown kinds and foreign versions are not liveness frames.
func parseLiveness(data []byte) (kind uint8, nonce uint64, sendTime int64, ok bool) {
	if len(data) < livenessSize {
		return 0, 0, 0, false
	}
	if binary.BigEndian.Uint32(data[0:]) != LivenessMagic || data[4] != Version {
		return 0, 0, 0, false
	}
	kind = data[5]
	if kind != livenessPing && kind != livenessPong {
		return 0, 0, 0, false
	}
	nonce = binary.BigEndian.Uint64(data[8:])
	sendTime = int64(binary.BigEndian.Uint64(data[16:]))
	return kind, nonce, sendTime, true
}

// pongFor builds the answer to a ping: same nonce, the responder's own
// send time.
func pongFor(nonce uint64, now int64) []byte {
	return marshalLiveness(livenessPong, nonce, now)
}

// ErrNotAlive is returned by Handshake when every attempt to elicit a pong
// from the far end failed: the path endpoint is refused, dead or
// blackholed, and a measurement session must not start (it would report
// the outage as perfectly-measured loss).
var ErrNotAlive = errors.New("wire: far end not alive")

// LivenessConfig tunes the handshake's retry schedule.
type LivenessConfig struct {
	// Attempts is how many pings to try before giving up. Default 4.
	Attempts int
	// Timeout is the per-attempt wait for a pong. Default 250ms.
	Timeout time.Duration
	// Backoff is the initial delay between attempts; it doubles per
	// attempt. Default 100ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. Default 2s.
	MaxBackoff time.Duration
	// Seed fixes the jitter RNG and the ping nonces; 0 derives one from
	// the clock. Pin it in tests.
	Seed int64
}

func (c *LivenessConfig) applyDefaults() {
	if c.Attempts == 0 {
		c.Attempts = 4
	}
	if c.Timeout == 0 {
		c.Timeout = 250 * time.Millisecond
	}
	if c.Backoff == 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = nowNano()
	}
}

// WithDefaults returns the config with zero fields filled in (the same
// defaulting Handshake applies).
func (c LivenessConfig) WithDefaults() LivenessConfig {
	c.applyDefaults()
	return c
}

// BackoffSchedule materializes the capped-exponential-with-jitter delays a
// config would sleep between attempts (attempt i's delay at index i).
// Exported so retry policies elsewhere (the fleet's session re-queue) use
// the exact same curve the handshake does.
func (c LivenessConfig) BackoffSchedule() []time.Duration {
	c.applyDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	out := make([]time.Duration, 0, c.Attempts)
	for i := 0; i < c.Attempts; i++ {
		out = append(out, jitteredBackoff(rng, c.Backoff, c.MaxBackoff, i))
	}
	return out
}

// backoffJitter is the random fraction of each backoff added or removed.
const backoffJitter = 0.5

// jitteredBackoff computes attempt's capped exponential backoff delay:
// base·2^attempt clamped to cap, then ±backoffJitter of it drawn from rng.
func jitteredBackoff(rng *rand.Rand, base, cap time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return max(time.Duration(float64(d)*(1+backoffJitter*(2*rng.Float64()-1))), 0)
}

// transientReadError reports whether a PacketConn read error is
// recoverable: anything but "socket closed" (and the permanent non-timeout
// net errors) is worth retrying, since UDP sockets surface far-end ICMP
// unreachable bursts as read errors while remaining perfectly usable.
func transientReadError(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return false
	}
	var op *net.OpError
	if errors.As(err, &op) {
		return true // refused/unreachable/timeout: socket still good
	}
	return false
}

// Ping writes a single liveness ping with the given nonce to conn. The
// pong comes back on the socket's read side — a Collector running there
// records it (LastPong); Handshake reads it directly. Mid-run watchdogs
// use this to re-check a suspect path without stealing the collector's
// reads.
func Ping(conn net.Conn, nonce uint64) error {
	_, err := conn.Write(marshalLiveness(livenessPing, nonce, nowNano()))
	return err
}

// Handshake proves the far end of conn (a connected UDP socket) is alive:
// it sends a ping and waits for a pong (or the ping echoed back by a dumb
// echo service) with a matching nonce, retrying with capped exponential
// backoff and jitter. It returns the round-trip time of the successful
// exchange, or ErrNotAlive (wrapping the last transport error, if any)
// once the attempt budget is spent.
//
// Handshake owns conn's read side while it runs: call it before starting
// a Collector loop on the same socket. For mid-run re-checks, route pongs
// through the collector (Collector.LastPong) instead.
func Handshake(ctx context.Context, conn net.Conn, cfg LivenessConfig) (time.Duration, error) {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var lastErr error
	defer conn.SetReadDeadline(time.Time{})
	for attempt := 0; attempt < cfg.Attempts; attempt++ {
		if attempt > 0 {
			wait := jitteredBackoff(rng, cfg.Backoff, cfg.MaxBackoff, attempt-1)
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return 0, ctx.Err()
			case <-timer.C:
			}
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		nonce := rng.Uint64()
		sent := time.Now()
		if _, err := conn.Write(marshalLiveness(livenessPing, nonce, sent.UnixNano())); err != nil {
			lastErr = err
			continue
		}
		rtt, err := awaitPong(conn, nonce, sent, cfg.Timeout)
		if err == nil {
			return rtt, nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return 0, fmt.Errorf("%w after %d attempts: %v", ErrNotAlive, cfg.Attempts, lastErr)
	}
	return 0, fmt.Errorf("%w after %d attempts", ErrNotAlive, cfg.Attempts)
}

// awaitPong reads conn until a liveness frame with the wanted nonce
// arrives or the deadline passes. Non-liveness traffic (stray probe
// reflections, control replies) is skipped.
func awaitPong(conn net.Conn, nonce uint64, sent time.Time, timeout time.Duration) (time.Duration, error) {
	if err := conn.SetReadDeadline(sent.Add(timeout)); err != nil {
		return 0, err
	}
	buf := make([]byte, 65536)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return 0, err
		}
		kind, got, _, ok := parseLiveness(buf[:n])
		if !ok || got != nonce {
			continue // not ours
		}
		// A pong proves a liveness-aware far end; a ping with our nonce
		// is our own frame bounced by a dumb echo service — either way
		// the path endpoint is demonstrably alive.
		_ = kind
		return time.Since(sent), nil
	}
}
