// Package wire implements BADABING over real UDP sockets: a binary probe
// packet format, a sender that paces the slot-based probe process onto the
// wire, and a collector (the paper's "collaborating target host") that
// reassembles probe observations, removes the clock offset, and produces
// loss-characteristic reports.
//
// The probe schedule is derived deterministically from parameters carried
// in every packet header (seed, p, N, improved, slot width), so the
// collector can reconstruct the full experiment plan and account for
// probes that were lost in their entirety — without any side channel.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Magic identifies BADABING probe packets.
const Magic uint32 = 0x42444247 // "BDBG"

// Version of the wire format.
const Version = 2

// HeaderSize is the fixed encoded size of a Header in bytes.
//
// Layout (big-endian):
//
//	 0  magic        uint32
//	 4  version      uint8
//	 5  flags        uint8  (bit 0: improved design)
//	 6  expID        uint64
//	14  slot         int64
//	22  pktIdx       uint8
//	23  pktsPerProbe uint8
//	24  p            float64 (IEEE 754 bits, so the collector redraws
//	                 the schedule from the sender's exact value)
//	32  n            int64
//	40  slotWidth    int64  (ns)
//	48  seed         int64
//	56  start        int64  (Unix ns of slot 0)
//	64  sendTime     int64  (Unix ns)
//	72  seq          uint64
const HeaderSize = 80

// MinPacketSize is the smallest legal probe packet.
const MinPacketSize = HeaderSize

// Header is the on-the-wire probe packet header.
type Header struct {
	// ExpID identifies the measurement session.
	ExpID uint64
	// Slot is the slot index this probe belongs to.
	Slot int64
	// PktIdx is this packet's index within its probe (0-based).
	PktIdx uint8
	// PktsPerProbe is the probe bunch length.
	PktsPerProbe uint8
	// Improved indicates the improved (extended-experiment) design.
	Improved bool
	// P is the per-slot experiment probability.
	P float64
	// N is the total number of slots in the session.
	N int64
	// SlotWidth is the discretization interval.
	SlotWidth time.Duration
	// Seed is the schedule seed; with P, N and Improved it fully
	// determines the experiment plan.
	Seed int64
	// Start is the sender's wall-clock time of slot 0 (Unix nanos).
	Start int64
	// SendTime is this packet's wall-clock send time (Unix nanos).
	SendTime int64
	// Seq is a global packet sequence number within the session.
	Seq uint64
}

// Marshal encodes h into buf, which must hold at least HeaderSize bytes,
// and returns the number of bytes written.
func (h *Header) Marshal(buf []byte) (int, error) {
	if len(buf) < HeaderSize {
		return 0, fmt.Errorf("wire: buffer %d bytes, need %d", len(buf), HeaderSize)
	}
	if !(h.P > 0 && h.P <= 1) {
		return 0, fmt.Errorf("wire: probability %v out of (0,1]", h.P)
	}
	binary.BigEndian.PutUint32(buf[0:], Magic)
	buf[4] = Version
	var flags byte
	if h.Improved {
		flags |= 1
	}
	buf[5] = flags
	binary.BigEndian.PutUint64(buf[6:], h.ExpID)
	binary.BigEndian.PutUint64(buf[14:], uint64(h.Slot))
	buf[22] = h.PktIdx
	buf[23] = h.PktsPerProbe
	binary.BigEndian.PutUint64(buf[24:], math.Float64bits(h.P))
	binary.BigEndian.PutUint64(buf[32:], uint64(h.N))
	binary.BigEndian.PutUint64(buf[40:], uint64(h.SlotWidth))
	binary.BigEndian.PutUint64(buf[48:], uint64(h.Seed))
	binary.BigEndian.PutUint64(buf[56:], uint64(h.Start))
	binary.BigEndian.PutUint64(buf[64:], uint64(h.SendTime))
	binary.BigEndian.PutUint64(buf[72:], h.Seq)
	return HeaderSize, nil
}

// Unmarshal decodes a header from buf.
func (h *Header) Unmarshal(buf []byte) error {
	if len(buf) < HeaderSize {
		return fmt.Errorf("wire: short packet: %d bytes", len(buf))
	}
	if binary.BigEndian.Uint32(buf[0:]) != Magic {
		return errors.New("wire: bad magic")
	}
	if buf[4] != Version {
		return fmt.Errorf("wire: unsupported version %d", buf[4])
	}
	h.Improved = buf[5]&1 != 0
	h.ExpID = binary.BigEndian.Uint64(buf[6:])
	h.Slot = int64(binary.BigEndian.Uint64(buf[14:]))
	h.PktIdx = buf[22]
	h.PktsPerProbe = buf[23]
	h.P = math.Float64frombits(binary.BigEndian.Uint64(buf[24:]))
	h.N = int64(binary.BigEndian.Uint64(buf[32:]))
	h.SlotWidth = time.Duration(binary.BigEndian.Uint64(buf[40:]))
	h.Seed = int64(binary.BigEndian.Uint64(buf[48:]))
	h.Start = int64(binary.BigEndian.Uint64(buf[56:]))
	h.SendTime = int64(binary.BigEndian.Uint64(buf[64:]))
	h.Seq = binary.BigEndian.Uint64(buf[72:])
	return nil
}
