package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"badabing/internal/stats"
)

// ZingMagic identifies ZING-style Poisson probe packets.
const ZingMagic uint32 = 0x5a494e47 // "ZING"

// ZingHeaderSize is the encoded size of a ZingHeader.
//
// Layout (big-endian): magic uint32, version uint8, pad uint8,
// expID uint64, seq uint64, sendTime int64.
const ZingHeaderSize = 30

// ZingHeader is the wire header of the Poisson prober: sequence-numbered,
// timestamped UDP probes (§2: "ZING sends UDP packets at Poisson-modulated
// intervals with fixed mean rate ... timestamps and unique sequence
// numbers, and the receiver logs the probe packet arrivals").
type ZingHeader struct {
	ExpID    uint64
	Seq      uint64
	SendTime int64 // Unix nanos
}

// Marshal encodes h into buf.
func (h *ZingHeader) Marshal(buf []byte) (int, error) {
	if len(buf) < ZingHeaderSize {
		return 0, fmt.Errorf("wire: buffer %d bytes, need %d", len(buf), ZingHeaderSize)
	}
	binary.BigEndian.PutUint32(buf[0:], ZingMagic)
	buf[4] = Version
	buf[5] = 0
	binary.BigEndian.PutUint64(buf[6:], h.ExpID)
	binary.BigEndian.PutUint64(buf[14:], h.Seq)
	binary.BigEndian.PutUint64(buf[22:], uint64(h.SendTime))
	return ZingHeaderSize, nil
}

// Unmarshal decodes a header from buf.
func (h *ZingHeader) Unmarshal(buf []byte) error {
	if len(buf) < ZingHeaderSize {
		return fmt.Errorf("wire: short packet: %d bytes", len(buf))
	}
	if binary.BigEndian.Uint32(buf[0:]) != ZingMagic {
		return errors.New("wire: bad zing magic")
	}
	if buf[4] != Version {
		return fmt.Errorf("wire: unsupported version %d", buf[4])
	}
	h.ExpID = binary.BigEndian.Uint64(buf[6:])
	h.Seq = binary.BigEndian.Uint64(buf[14:])
	h.SendTime = int64(binary.BigEndian.Uint64(buf[22:]))
	return nil
}

// ZingSenderConfig parameterizes a Poisson-modulated probe session (§2's
// ZING baseline: UDP probes at exponentially distributed intervals).
type ZingSenderConfig struct {
	// ExpID identifies the session at the collector.
	ExpID uint64
	// Rate is the mean probe rate in probes per second.
	Rate float64
	// Size is the probe packet size; default 256, minimum ZingHeaderSize.
	Size int
	// Duration bounds the session length.
	Duration time.Duration
	// Seed drives the interval RNG; 0 derives it from the clock.
	Seed int64
}

func (c *ZingSenderConfig) applyDefaults() error {
	if c.Size == 0 {
		c.Size = 256
	}
	if c.Size < ZingHeaderSize {
		return fmt.Errorf("wire: zing packet size %d below header size %d", c.Size, ZingHeaderSize)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("wire: zing rate %v must be positive", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("wire: zing duration %v must be positive", c.Duration)
	}
	if c.Seed == 0 {
		c.Seed = nowNano()
	}
	return nil
}

// ZingSend emits sequence-numbered, timestamped probes over conn at
// Poisson-modulated epochs until the configured duration elapses or ctx
// is cancelled (in which case it returns the probes sent so far alongside
// ctx's error). Each epoch is the running sum of exponential gaps from the
// start, the draw the simulated ZING prober makes, and each probe is paced
// onto its epoch the way SendSlots paces a slot deadline, so a late write
// does not delay the probes after it. The first epoch at or after the
// duration ends the session. The returned count is the exact total a
// collector needs for trailing-loss accounting.
func ZingSend(ctx context.Context, conn net.Conn, cfg ZingSenderConfig) (uint64, error) {
	if err := cfg.applyDefaults(); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mean := time.Duration(float64(time.Second) / cfg.Rate)
	buf := make([]byte, cfg.Size)
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	start := time.Now()
	var seq uint64
	for epoch := stats.Exp(rng, mean); epoch < cfg.Duration; epoch += stats.Exp(rng, mean) {
		if err := waitUntil(ctx, timer, start.Add(epoch)); err != nil {
			return seq, err
		}
		h := ZingHeader{ExpID: cfg.ExpID, Seq: seq, SendTime: time.Now().UnixNano()}
		if _, err := h.Marshal(buf); err != nil {
			return seq, err
		}
		if _, err := conn.Write(buf); err != nil {
			return seq, err
		}
		seq++
	}
	return seq, nil
}

// zingSession holds received sequence numbers and send times.
type zingSession struct {
	seqs     map[uint64]int64 // seq → send time
	maxSeq   uint64
	lastSeen time.Time // arrival of the newest packet, for Expire
}

// ZingCollector receives ZING probes and reports loss characteristics the
// way §4.2 analyzes them: loss frequency as the fraction of lost probes
// and loss episodes as runs of consecutive lost sequence numbers.
type ZingCollector struct {
	mu       sync.Mutex
	sessions map[uint64]*zingSession
}

// NewZingCollector returns an empty collector; feed it with Record or via
// Serve.
func NewZingCollector() *ZingCollector {
	return &ZingCollector{sessions: make(map[uint64]*zingSession)}
}

// Record registers one received probe.
func (c *ZingCollector) Record(h *ZingHeader) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sessions[h.ExpID]
	if s == nil {
		s = &zingSession{seqs: make(map[uint64]int64)}
		c.sessions[h.ExpID] = s
	}
	s.seqs[h.Seq] = h.SendTime
	if h.Seq > s.maxSeq {
		s.maxSeq = h.Seq
	}
	s.lastSeen = time.Now()
}

// Expire drops sessions that have received no packet for at least
// maxIdle, returning how many were removed. A long-running collector
// calls it after each report so finished sessions do not accumulate.
func (c *ZingCollector) Expire(maxIdle time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := time.Now().Add(-maxIdle)
	removed := 0
	for id, s := range c.sessions {
		if !s.lastSeen.After(cutoff) {
			delete(c.sessions, id)
			removed++
		}
	}
	return removed
}

// ZingWireReport is the per-session analysis.
type ZingWireReport struct {
	Probes    uint64
	Received  uint64
	Lost      uint64
	Frequency float64
	// Duration summarizes loss-run durations in seconds, where a run's
	// duration is the send-time span of its consecutive lost probes.
	Duration stats.Summary
}

// Report analyzes a session. totalSent > 0 overrides the probe count
// inferred from the highest sequence seen (which misses trailing losses).
func (c *ZingCollector) Report(expID uint64, totalSent uint64) (ZingWireReport, error) {
	c.mu.Lock()
	s := c.sessions[expID]
	if s == nil {
		c.mu.Unlock()
		return ZingWireReport{}, ErrUnknownSession
	}
	seqs := make(map[uint64]int64, len(s.seqs))
	for k, v := range s.seqs {
		seqs[k] = v
	}
	maxSeq := s.maxSeq
	c.mu.Unlock()

	total := maxSeq + 1
	if totalSent > 0 {
		total = totalSent
	}
	rep := ZingWireReport{Probes: total, Received: uint64(len(seqs))}
	if total < rep.Received {
		total = rep.Received
		rep.Probes = total
	}
	rep.Lost = total - rep.Received

	// Reconstruct loss runs. Send times of lost probes are unknown, so
	// a run's span is measured between the send times of its bracketing
	// received probes, interpolated one inter-probe gap inward — for an
	// isolated loss this yields zero, matching the §4.2 analysis where
	// a single lost probe carries no duration information.
	received := make([]uint64, 0, len(seqs))
	for seq := range seqs {
		received = append(received, seq)
	}
	sort.Slice(received, func(i, j int) bool { return received[i] < received[j] })
	for i := 1; i < len(received); i++ {
		gap := received[i] - received[i-1]
		if gap <= 1 {
			continue
		}
		lostCount := gap - 1
		span := time.Duration(seqs[received[i]] - seqs[received[i-1]])
		// The span covers lostCount+1 inter-probe intervals; the
		// lost run itself covers lostCount-1 of them.
		runDur := span * time.Duration(lostCount-1) / time.Duration(lostCount+1)
		rep.Duration.AddDuration(runDur)
	}
	if total > 0 {
		rep.Frequency = float64(rep.Lost) / float64(total)
	}
	return rep, nil
}

// Sessions lists known session ids.
func (c *ZingCollector) Sessions() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, 0, len(c.sessions))
	for id := range c.sessions {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
