package wire

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/session"
)

// probeRec accumulates the collector's view of one probe.
type probeRec struct {
	slot    int64
	got     int
	maxOWD  time.Duration
	maxLate time.Duration // worst sender pacing lag among the packets
}

// colSession is the collector's state for one ExpID.
type colSession struct {
	params Header // schedule parameters from the first packet seen
	// probes holds one record per probe heard from, in strictly
	// ascending slot order (the simulated prober's shape). Packets
	// arrive in slot order on a sane path, so an arrival appends a
	// record or updates the newest one; only a duplicated or reordered
	// packet binary-searches, and inserts if its probe is new.
	probes   []probeRec
	packets  uint64
	lastSeen time.Time
}

// find returns the index of slot's record, or the index it would be
// inserted at, and whether the record exists.
func (s *colSession) find(slot int64) (int, bool) {
	return slices.BinarySearchFunc(s.probes, slot, func(r probeRec, slot int64) int {
		return cmp.Compare(r.slot, slot)
	})
}

// rec returns slot's record, creating it in slot order if it is new.
func (s *colSession) rec(slot int64) *probeRec {
	n := len(s.probes)
	switch {
	case n == 0 || s.probes[n-1].slot < slot:
		s.probes = append(s.probes, probeRec{slot: slot})
		return &s.probes[n]
	case s.probes[n-1].slot == slot:
		return &s.probes[n-1]
	}
	i, ok := s.find(slot)
	if !ok {
		s.probes = slices.Insert(s.probes, i, probeRec{slot: slot})
	}
	return &s.probes[i]
}

// Collector receives probe packets on a UDP socket and produces
// loss-characteristic reports per session. It is the "collaborating
// target host" of §1: the target system collects probe packets and
// reports the loss characteristics.
type Collector struct {
	conn net.PacketConn

	mu          sync.Mutex
	sessions    map[uint64]*colSession
	queryMarker badabing.MarkerConfig
	closed      bool
	lastPongAt  time.Time
}

// NewCollector wraps an open packet socket. Call Run to start receiving.
func NewCollector(conn net.PacketConn) *Collector {
	return &Collector{conn: conn, sessions: make(map[uint64]*colSession)}
}

// Run reads packets until the socket is closed, in recvmmsg batches
// where the platform allows. It is intended to be run on its own
// goroutine.
func (c *Collector) Run() {
	bc := NewBatchConn(c.conn, false)
	ms := MakeMessages(DefaultBatch)
	for {
		n, err := bc.ReadBatch(ms)
		if err != nil {
			if transientReadError(err) {
				// A connected socket whose far end died reports the
				// ICMP-unreachable burst on reads too; the collector
				// must outlive it — the far end may restart, and the
				// log it holds is the session's partial evidence.
				continue
			}
			return
		}
		for i := 0; i < n; i++ {
			c.handlePacket(ms[i].Payload(), ms[i].Addr)
		}
	}
}

// handlePacket classifies and processes one received datagram. addr may
// be batch-reused storage, valid only for the duration of the call.
func (c *Collector) handlePacket(buf []byte, addr net.Addr) {
	now := time.Now()
	if expID, ok := parseQuery(buf); ok {
		// Control queries are rare; answer off the hot path so
		// assembly does not stall probe reception. The batch loop
		// reuses addr storage, so the async path gets a copy.
		go c.handleQuery(expID, copyAddr(addr))
		return
	}
	if kind, nonce, _, ok := parseLiveness(buf); ok {
		switch kind {
		case livenessPing:
			// Symmetric liveness: a collector target proves itself
			// alive the same way a reflector does.
			c.conn.WriteTo(pongFor(nonce, now.UnixNano()), addr)
		case livenessPong:
			// A watchdog's mid-run re-check routes its pong through
			// us, since we own the socket's read side.
			c.mu.Lock()
			c.lastPongAt = now
			c.mu.Unlock()
		}
		return
	}
	var h Header
	if err := h.Unmarshal(buf); err != nil {
		return // not ours
	}
	c.record(&h, now)
}

// copyAddr snapshots a possibly-reused batch address for retention
// beyond the current ReadBatch window.
func copyAddr(addr net.Addr) net.Addr {
	if ua, ok := addr.(*net.UDPAddr); ok {
		cp := *ua
		cp.IP = append(net.IP(nil), ua.IP...)
		return &cp
	}
	return addr
}

// record logs one probe packet. A packet whose slot lies outside [0, N)
// of its session's schedule names no probe and is dropped, so a session
// never holds more than N records.
func (c *Collector) record(h *Header, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sessions[h.ExpID]
	n := h.N
	if s != nil {
		n = s.params.N
	}
	if h.Slot < 0 || h.Slot >= n {
		return
	}
	if s == nil {
		s = &colSession{params: *h}
		c.sessions[h.ExpID] = s
	}
	s.packets++
	s.lastSeen = now
	r := s.rec(h.Slot)
	r.got++
	if owd := time.Duration(now.UnixNano() - h.SendTime); owd > r.maxOWD {
		r.maxOWD = owd
	}
	scheduled := h.Start + h.Slot*int64(h.SlotWidth)
	if late := time.Duration(h.SendTime - scheduled); late > r.maxLate {
		r.maxLate = late
	}
}

// LastPong returns the arrival time of the most recently received
// liveness pong, zero until any pong has arrived.
func (c *Collector) LastPong() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastPongAt
}

// Received returns how many packets of the session's probe at slot have
// arrived, duplicates included. The wire transport's watchdog reads it
// slot by slot to tell a lossy path (scattered gaps) from a dead far end
// (an unbroken trailing run of unanswered probes).
func (c *Collector) Received(expID uint64, slot int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.sessions[expID]; s != nil {
		if i, ok := s.find(slot); ok {
			return s.probes[i].got
		}
	}
	return 0
}

// Sessions lists the ExpIDs seen so far.
func (c *Collector) Sessions() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]uint64, 0, len(c.sessions))
	for id := range c.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SessionStats summarizes the raw reception state of a session.
type SessionStats struct {
	Packets       uint64
	ProbesSeen    int
	ProbesPlanned int
	PacketsLost   int
	// LateInvalid counts probes the sender emitted more than half a
	// slot behind schedule. A lagging sender bunches adjacent slots'
	// probes together, which would corrupt the experiment outcomes, so
	// experiments touching such probes are discarded (§7: hosts that
	// cannot sustain the discretization cannot measure at it).
	LateInvalid int
	// Skipped counts experiments discarded for incomplete or invalid
	// probe observations.
	Skipped int
	// Skew is the fitted clock drift between sender and receiver,
	// which Estimate removes from the delays before marking (§7).
	Skew Skew
}

// ErrUnknownSession is returned for an ExpID the collector has not seen.
var ErrUnknownSession = errors.New("wire: unknown session")

// Estimate reconstructs the session's experiment plan from the header
// parameters, assembles probe observations (fully lost probes included),
// marks congestion with the given parameters and replays the outcomes
// through the batch estimator cfg selects (estimate.Batch). It leaves the
// session undisturbed, so a long-running service can poll live sessions.
func (c *Collector) Estimate(expID uint64, marker badabing.MarkerConfig, cfg estimate.Config) (estimate.Snapshot, SessionStats, error) {
	plans, bySlot, slot, stats, err := c.marked(expID, marker)
	if err != nil {
		return estimate.Snapshot{}, stats, err
	}
	snap, skipped, err := estimate.Batch(cfg, badabing.StreamConfig{Slot: slot}, plans, bySlot)
	stats.Skipped = skipped
	return snap, stats, err
}

// counts is Estimate's control-channel form: the session's raw outcome
// tallies, assembled through the same loop.
func (c *Collector) counts(expID uint64, marker badabing.MarkerConfig) (badabing.Counts, SessionStats, error) {
	plans, bySlot, _, stats, err := c.marked(expID, marker)
	if err != nil {
		return badabing.Counts{}, stats, err
	}
	var acc badabing.Accumulator
	stats.Skipped = badabing.Assemble(plans, bySlot, func(_ int64, bits []bool) { acc.Add(bits) })
	return acc.Counts(), stats, nil
}

// marked runs the reconstruction and marking half of the pipeline: the
// session's schedule, rebuilt from its header parameters via
// badabing.Schedule and ProbeSlots, and the per-slot congestion bits of
// its observations (AssembleObs, then session.MarkSlots) — the same calls
// the transport-neutral session engine makes.
func (c *Collector) marked(expID uint64, marker badabing.MarkerConfig) (plans []badabing.Plan, bySlot map[int64]bool, slot time.Duration, stats SessionStats, err error) {
	c.mu.Lock()
	s := c.sessions[expID]
	if s == nil {
		c.mu.Unlock()
		return nil, nil, 0, SessionStats{}, ErrUnknownSession
	}
	params := s.params
	stats = SessionStats{Packets: s.packets, ProbesSeen: len(s.probes)}
	c.mu.Unlock()

	// Headers arrive off the network: an invalid embedded schedule
	// config must surface as an error, never crash the collector.
	plans, err = badabing.Schedule(badabing.ScheduleConfig{
		P: params.P, N: params.N, Improved: params.Improved, Seed: params.Seed,
	})
	if err != nil {
		return nil, nil, 0, stats, fmt.Errorf("wire: session %d: %w", expID, err)
	}
	slots := badabing.ProbeSlots(plans)
	stats.ProbesPlanned = len(slots)

	obs, invalid, skew := c.AssembleObs(expID, slots, int(params.PktsPerProbe), params.SlotWidth)
	stats.Skew = skew
	stats.LateInvalid = len(invalid)
	for _, o := range obs {
		stats.PacketsLost += o.LostPackets
	}
	return plans, session.MarkSlots(obs, invalid, marker), params.SlotWidth, stats, nil
}

// AssembleObs builds per-probe observations for the given slots of a
// session: fully lost probes are included as all-lost, probes the sender
// paced more than half a slot behind schedule are flagged invalid (§7: a
// lagging sender bunches adjacent slots' probes together, corrupting the
// experiment outcomes), fitted clock skew is removed from the delays (§7)
// and missing delays are inherited per §6.1. An unknown session yields
// all-lost observations, which is what a sender whose every probe vanished
// should conclude. Both the collector's batch reports and the wire
// transport of the session engine assemble through this one method.
//
// slots must be ascending, as badabing.ProbeSlots and the session
// engine's emitted prefix are: they are merged against the session's
// slot-ordered records in one pass under the collector's lock, without
// copying the records.
func (c *Collector) AssembleObs(expID uint64, slots []int64, perProbe int, slotWidth time.Duration) (obs []badabing.ProbeObs, invalid map[int64]bool, skew Skew) {
	obs = make([]badabing.ProbeObs, len(slots))
	invalid = make(map[int64]bool)
	c.merge(expID, slots, perProbe, slotWidth, obs, invalid)
	skew = estimateSkew(obs)
	correctSkew(obs, skew)
	badabing.InheritOWD(obs)
	return obs, invalid, skew
}

// merge fills obs[i] from the record of slots[i] and flags late probes
// in invalid.
func (c *Collector) merge(expID uint64, slots []int64, perProbe int, slotWidth time.Duration, obs []badabing.ProbeObs, invalid map[int64]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var recs []probeRec
	if s := c.sessions[expID]; s != nil {
		recs = s.probes
	}
	lateLimit := slotWidth / 2
	j := 0
	for i, slot := range slots {
		if i > 0 && slot < slots[i-1] {
			panic("wire: AssembleObs slots not ascending")
		}
		for j < len(recs) && recs[j].slot < slot {
			j++
		}
		o := badabing.ProbeObs{
			Slot:        slot,
			SentPackets: perProbe,
			T:           time.Duration(slot) * slotWidth,
			LostPackets: perProbe,
		}
		if j < len(recs) && recs[j].slot == slot {
			r := &recs[j]
			o.LostPackets = perProbe - r.got
			o.OWD = r.maxOWD
			if r.maxLate > lateLimit {
				invalid[slot] = true
			}
		}
		if o.LostPackets < 0 {
			o.LostPackets = 0 // duplicated packets; clamp
		}
		obs[i] = o
	}
}

// Expire drops sessions that have received no packet for at least
// maxIdle, returning how many were removed. A long-running collector
// should call this periodically so abandoned sessions do not accumulate.
func (c *Collector) Expire(maxIdle time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := time.Now().Add(-maxIdle)
	removed := 0
	for id, s := range c.sessions {
		if s.lastSeen.Before(cutoff) {
			delete(c.sessions, id)
			removed++
		}
	}
	return removed
}

// Close shuts the underlying socket, terminating Run.
func (c *Collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}
