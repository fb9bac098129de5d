package wire

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/probe"
)

// ZingMagic identifies ZING-style Poisson probe packets.
const ZingMagic uint32 = 0x5a494e47 // "ZING"

// ZingHeaderSize is the encoded size of a ZingHeader.
//
// Layout (big-endian): magic uint32, version uint8, pad uint8,
// expID uint64, seq uint64, sendTime int64, then the sender's epoch
// draw: seed int64, mean int64 (ns), duration int64 (ns).
const ZingHeaderSize = 54

// ZingHeader is the wire header of the Poisson prober: sequence-numbered,
// timestamped UDP probes (§2: "ZING sends UDP packets at Poisson-modulated
// intervals with fixed mean rate ... timestamps and unique sequence
// numbers, and the receiver logs the probe packet arrivals").
type ZingHeader struct {
	ExpID    uint64
	Seq      uint64
	SendTime int64 // Unix nanos
	// Draw is the sender's epoch draw: from it the collector redraws
	// every probe's send epoch.
	Draw probe.ZingConfig
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
	binary.BigEndian.PutUint64(buf[30:], uint64(h.Draw.Seed))
	binary.BigEndian.PutUint64(buf[38:], uint64(h.Draw.Mean))
	binary.BigEndian.PutUint64(buf[46:], uint64(h.Draw.Duration))
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
	h.Draw.Seed = int64(binary.BigEndian.Uint64(buf[30:]))
	h.Draw.Mean = time.Duration(binary.BigEndian.Uint64(buf[38:]))
	h.Draw.Duration = time.Duration(binary.BigEndian.Uint64(buf[46:]))
	return nil
}

// ZingSend emits size-byte probes (at least ZingHeaderSize) over conn,
// sequence-numbered and timestamped, at the epochs draw gives, the
// simulated ZING prober's draw; a draw seed of 0 is taken from the clock.
// It sends until the last epoch, or until ctx is cancelled, when it
// returns the stats so far with ctx's error. Each probe is paced onto its
// epoch the way SendSlots paces a slot deadline, so a late write does not
// delay the probes after it, and written through SendSlots' guard, with
// the probe's sequence number as its slot: a rejected write is counted
// and pacing goes on, and only an unbroken run of rejected writes
// declares the far end dead (session.ErrPathDead). Every header carries
// the draw, so the collector knows the whole session.
func ZingSend(ctx context.Context, conn net.Conn, expID uint64, size int, draw probe.ZingConfig) (SendStats, error) {
	st := SendStats{DeadSlot: -1}
	if size < ZingHeaderSize {
		return st, fmt.Errorf("wire: zing packet size %d below header size %d", size, ZingHeaderSize)
	}
	draw = draw.WithDefaults()
	if draw.Seed == 0 {
		draw.Seed = nowNano()
	}
	epochs, err := draw.Epochs()
	if err != nil {
		return st, err
	}
	st.Probes = len(epochs)
	g := writeGuard{conn: conn, st: &st}
	h := ZingHeader{ExpID: expID, Draw: draw}
	buf := make([]byte, size)
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	start := time.Now()
	for i, epoch := range epochs {
		if err := waitUntil(ctx, timer, start.Add(epoch)); err != nil {
			return st, err
		}
		h.Seq, h.SendTime = uint64(i), time.Now().UnixNano()
		if _, err := h.Marshal(buf); err != nil {
			return st, err
		}
		if err := g.write(buf, int64(i)); err != nil {
			return st, err
		}
	}
	return st, nil
}

// zingRec is one received probe.
type zingRec struct {
	seq     uint64
	arrival time.Time
}

func cmpSeq(r zingRec, seq uint64) int { return cmp.Compare(r.seq, seq) }

// zingSession is the collector's state for one ExpID.
type zingSession struct {
	draw probe.ZingConfig // the epoch draw of the first packet seen
	// recs holds one record per probe heard from, in strictly ascending
	// sequence order; a duplicate keeps its first arrival.
	recs     []zingRec
	lastSeen time.Time // arrival of the newest packet, for Expire
}

// ZingCollector receives ZING probes and reports loss characteristics the
// way §4.2 analyzes them: loss frequency as the fraction of lost probes
// and loss episodes as runs of consecutive lost probes.
type ZingCollector struct {
	mu       sync.Mutex
	sessions map[uint64]*zingSession
}

// NewZingCollector returns an empty collector; feed it with Record.
func NewZingCollector() *ZingCollector {
	return &ZingCollector{sessions: make(map[uint64]*zingSession)}
}

// Record registers one probe that arrived at arrival. A sequence number no
// draw reaches (badabing.MaxSlots or more) names no probe and is dropped.
func (c *ZingCollector) Record(h *ZingHeader, arrival time.Time) {
	if h.Seq >= badabing.MaxSlots {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sessions[h.ExpID]
	if s == nil {
		s = &zingSession{draw: h.Draw}
		c.sessions[h.ExpID] = s
	}
	s.lastSeen = arrival
	if i, ok := slices.BinarySearchFunc(s.recs, h.Seq, cmpSeq); !ok {
		s.recs = slices.Insert(s.recs, i, zingRec{seq: h.Seq, arrival: arrival})
	}
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

// Report analyzes a session with probe.AnalyzeZing, the analysis behind
// the simulated prober's report. It redraws the session's epochs from its
// header and scores the probes that are due: those whose epoch is at or
// before the newest received probe's epoch plus the time since that probe
// arrived. A due probe that never arrived is lost, so trailing losses
// count once the sender has had time to send them. Sequence numbers
// beyond the draw are ignored.
func (c *ZingCollector) Report(expID uint64) (probe.ZingReport, error) {
	c.mu.Lock()
	s := c.sessions[expID]
	c.mu.Unlock()
	if s == nil {
		return probe.ZingReport{}, ErrUnknownSession
	}
	epochs, err := s.draw.Epochs()
	if err != nil {
		return probe.ZingReport{}, fmt.Errorf("wire: zing session %d: %w", expID, err)
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	n, _ := slices.BinarySearchFunc(s.recs, uint64(len(epochs)), cmpSeq)
	if n == 0 {
		return probe.ZingReport{}, nil
	}
	recs := s.recs[:n]
	newest := recs[n-1]
	base, since := epochs[newest.seq], max(now.Sub(newest.arrival), 0)
	due := sort.Search(len(epochs), func(k int) bool { return epochs[k]-base > since })
	return probe.AnalyzeZing(due, func(k int) (time.Duration, bool) {
		_, got := slices.BinarySearchFunc(recs, uint64(k), cmpSeq)
		return epochs[k], !got
	}), nil
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
