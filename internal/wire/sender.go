package wire

import (
	"context"
	"fmt"
	"math"
	"net"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/session"
)

// nowNano supplies the clock-derived default for unpinned seeds. Tests
// override it to make "unseeded" sessions reproducible; everything else
// must route clock-derived seeds through it rather than calling time.Now
// directly.
var nowNano = func() int64 { return time.Now().UnixNano() }

// SenderConfig parameterizes a measurement session.
type SenderConfig struct {
	// ExpID identifies the session; pick something unique per run.
	ExpID uint64
	// P is the per-slot experiment probability.
	P float64
	// N is the number of slots. The session lasts N × Slot.
	N int64
	// Slot width; default badabing.DefaultSlot. Real hosts cannot pace
	// much below a millisecond reliably with timers (§7's point about
	// commodity workstations and small discretizations).
	Slot time.Duration
	// Improved selects the improved (triple-probe) design.
	Improved bool
	// Seed determines the schedule; the collector re-derives it.
	Seed int64
	// PacketsPerProbe: default 3, at most 255 (the header's PktsPerProbe
	// is one byte).
	PacketsPerProbe int
	// PacketSize: default 600, minimum HeaderSize.
	PacketSize int
	// DisableBatch forces per-packet probe writes even when the conn
	// offers a batch fast path (sendmmsg). The chaos matrix runs the
	// same session both ways and pins the estimates bit-identical.
	DisableBatch bool
}

// Normalize fills defaults (slot width, packet sizing, clock-derived seed)
// and validates the config in place, so callers that assemble packets or
// schedules themselves see the same values the sender will use.
func (c *SenderConfig) Normalize() error { return c.applyDefaults() }

func (c *SenderConfig) applyDefaults() error {
	if c.Slot == 0 {
		c.Slot = badabing.DefaultSlot
	}
	if c.PacketsPerProbe == 0 {
		c.PacketsPerProbe = 3
	}
	if c.PacketsPerProbe < 1 || c.PacketsPerProbe > math.MaxUint8 {
		return fmt.Errorf("wire: %d packets per probe out of [1,%d]", c.PacketsPerProbe, math.MaxUint8)
	}
	if c.PacketSize == 0 {
		c.PacketSize = 600
	}
	if c.PacketSize < MinPacketSize {
		return fmt.Errorf("wire: packet size %d below header size %d", c.PacketSize, MinPacketSize)
	}
	if c.P <= 0 || c.P > 1 {
		return fmt.Errorf("wire: probability %v out of (0,1]", c.P)
	}
	if c.N <= 0 {
		return fmt.Errorf("wire: slot count %d must be positive", c.N)
	}
	if c.Seed == 0 {
		c.Seed = nowNano()
	}
	return nil
}

// SendStats summarizes a completed send.
type SendStats struct {
	Experiments int
	Probes      int
	Packets     int
	// MaxLag is the worst observed pacing lag behind the schedule; if
	// it approaches the slot width, the host cannot sustain this
	// discretization (§7).
	MaxLag time.Duration
	// WriteFailures counts probe-packet writes the socket rejected.
	// Transient failures (an ICMP-refused burst while a reflector
	// restarts) are tolerated and counted rather than aborting the
	// session; only an unbroken run of them kills the send.
	WriteFailures int
	// DeadSlot is the slot where the terminal run of consecutive write
	// failures began, or -1 if the send did not die that way. The wire
	// transport truncates its observations there so the outage is never
	// reported as measured loss.
	DeadSlot int64
}

// maxConsecutiveWriteFailures is how many probe-packet writes may fail in
// an unbroken run before the sender declares the far end dead. At the
// default 3 packets per probe this is 10 straight probes with a rejected
// send path — well past any transient refused burst, and cheap to reach
// quickly when a connected UDP socket returns ECONNREFUSED for a closed
// far end.
const maxConsecutiveWriteFailures = 30

// Send runs a full measurement session over conn (a connected UDP socket),
// pacing probes onto their slot deadlines. It blocks until the session
// completes or ctx is cancelled.
func Send(ctx context.Context, conn net.Conn, cfg SenderConfig) (SendStats, error) {
	if err := cfg.applyDefaults(); err != nil {
		return SendStats{DeadSlot: -1}, err
	}
	plans, err := badabing.Schedule(badabing.ScheduleConfig{
		P: cfg.P, N: cfg.N, Improved: cfg.Improved, Seed: cfg.Seed,
	})
	if err != nil {
		return SendStats{DeadSlot: -1}, err
	}
	st, err := SendSlots(ctx, conn, cfg, badabing.ProbeSlots(plans), time.Now(), nil)
	st.Experiments = len(plans)
	return st, err
}

// SendSlots paces the probes of an already-flattened schedule (ascending,
// deduplicated slots from badabing.ProbeSlots) onto their deadlines
// relative to start, which also stamps the wire header so the receiver can
// reconstruct the timeline. onProbe, if non-nil, is called after each
// probe's packets have been written, with the probe's index and the
// running stats — the wire transport tracks emission progress and write
// failures from it. cfg must already be defaulted and carry a valid Seed;
// Send wraps this with schedule generation for standalone use.
func SendSlots(ctx context.Context, conn net.Conn, cfg SenderConfig, slots []int64, start time.Time, onProbe func(i int, st SendStats)) (SendStats, error) {
	st := SendStats{DeadSlot: -1}
	if err := cfg.applyDefaults(); err != nil {
		return st, err
	}
	st.Probes = len(slots)
	var consecFails int
	var failRunSlot int64
	var lastWriteErr error

	// writeOne is the single-packet slow path with the consecutive-
	// write-failure guard: a rejected write is infrastructure failure,
	// not path loss — count it and keep pacing. Only an unbroken run
	// long enough to rule out a transient declares the far end dead.
	writeOne := func(buf []byte, slot int64) error {
		if _, err := conn.Write(buf); err != nil {
			st.WriteFailures++
			if consecFails == 0 {
				failRunSlot = slot
			}
			consecFails++
			lastWriteErr = err
			if consecFails >= maxConsecutiveWriteFailures {
				st.DeadSlot = failRunSlot
				return fmt.Errorf("wire: %d consecutive write failures from slot %d (%v): %w",
					consecFails, failRunSlot, lastWriteErr, session.ErrPathDead)
			}
			return nil
		}
		consecFails = 0
		st.Packets++
		return nil
	}

	// The batch fast path emits a probe's whole packet bunch with one
	// sendmmsg. Any shortfall or error drops that bunch's remainder to
	// writeOne, so failure accounting and the dead-path guard behave
	// exactly as on the single-packet path.
	var bw BatchWriter
	if !cfg.DisableBatch {
		if b, ok := conn.(BatchWriter); ok {
			bw = b
		} else {
			bw = NewBatchWriter(conn)
		}
	}
	var batch []Message
	if bw != nil {
		backing := make([]byte, cfg.PacketsPerProbe*cfg.PacketSize)
		batch = make([]Message, cfg.PacketsPerProbe)
		for i := range batch {
			batch[i].Buf = backing[i*cfg.PacketSize : (i+1)*cfg.PacketSize]
			batch[i].N = cfg.PacketSize
		}
	}

	buf := make([]byte, cfg.PacketSize)
	var seq uint64
	h := Header{
		ExpID:        cfg.ExpID,
		PktsPerProbe: uint8(cfg.PacketsPerProbe),
		Improved:     cfg.Improved,
		P:            cfg.P,
		N:            cfg.N,
		SlotWidth:    cfg.Slot,
		Seed:         cfg.Seed,
		Start:        start.UnixNano(),
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}

	for i, slot := range slots {
		deadline := start.Add(time.Duration(slot) * cfg.Slot)
		if err := waitUntil(ctx, timer, deadline); err != nil {
			return st, err
		}
		if lag := time.Since(deadline); lag > st.MaxLag {
			st.MaxLag = lag
		}
		h.Slot = slot
		if bw != nil {
			for i := 0; i < cfg.PacketsPerProbe; i++ {
				h.PktIdx = uint8(i)
				h.SendTime = time.Now().UnixNano()
				h.Seq = seq
				seq++
				if _, err := h.Marshal(batch[i].Buf); err != nil {
					return st, err
				}
			}
			n, err := bw.WriteBatch(batch)
			st.Packets += n
			if n > 0 {
				consecFails = 0
			}
			if n != len(batch) || err != nil {
				for i := n; i < len(batch); i++ {
					if werr := writeOne(batch[i].Buf, slot); werr != nil {
						return st, werr
					}
				}
			}
		} else {
			for i := 0; i < cfg.PacketsPerProbe; i++ {
				h.PktIdx = uint8(i)
				h.SendTime = time.Now().UnixNano()
				h.Seq = seq
				seq++
				if _, err := h.Marshal(buf); err != nil {
					return st, err
				}
				if err := writeOne(buf, slot); err != nil {
					return st, err
				}
			}
		}
		if onProbe != nil {
			onProbe(i, st)
		}
	}
	return st, nil
}

// waitUntil paces one send onto its deadline: a coarse timer to within
// 2 ms of it, then a busy-wait, because OS timers routinely overshoot by
// a millisecond or more, which is material at millisecond slot widths.
// timer must be stopped and drained; it is again when waitUntil returns
// nil. A deadline already past returns at once.
func waitUntil(ctx context.Context, timer *time.Timer, deadline time.Time) error {
	const spin = 2 * time.Millisecond
	if wait := time.Until(deadline) - spin; wait > 0 {
		timer.Reset(wait)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
	}
	for time.Until(deadline) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
