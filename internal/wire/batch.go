package wire

import (
	"errors"
	"net"
)

// Batched datagram I/O. The wire hot path — the reflector's echo loop,
// the collector's receive loop and the sender's per-probe packet bursts —
// previously cost one syscall per packet. At fleet scale (many concurrent
// sessions against one daemon, Ekelin et al.'s reflecting-server
// dimensioning problem) that syscall overhead both caps throughput and
// skews probe pacing, which is the accuracy-critical quantity. This file
// defines the portable batch interface; batch_linux.go implements it with
// sendmmsg(2)/recvmmsg(2), and every other platform (plus any non-UDP
// net.PacketConn) falls back to semantically identical single-packet
// loops.

// MaxBatch is the largest number of datagrams moved per batched syscall.
// Linux caps sendmmsg/recvmmsg vectors at UIO_MAXIOV (1024); 64 already
// amortizes syscall entry to noise while keeping per-shard buffer memory
// (64 × 2 KiB) trivial.
const MaxBatch = 64

// DefaultBatch is the batch size used when a config leaves it zero.
const DefaultBatch = 32

// maxDatagram is the buffer size reserved per batched message. Probe
// packets default to 600 bytes and liveness frames to 24; 2 KiB leaves
// generous headroom for foreign or future traffic without making batch
// buffers expensive. Larger datagrams are truncated by the kernel, which
// the parsers treat exactly like wire truncation (not ours / loss).
const maxDatagram = 2048

// Message is one datagram in a batch: a reusable buffer, the number of
// valid bytes, and the peer address (source on read, destination on
// write; nil means the socket's connected peer).
type Message struct {
	Buf  []byte
	N    int
	Addr net.Addr
}

// Payload returns the valid bytes of the message.
func (m *Message) Payload() []byte { return m.Buf[:m.N] }

// BatchConn is a net.PacketConn that can move several datagrams per
// call. ReadBatch blocks until at least one datagram is available, fills
// as many of ms as are immediately readable, and returns the count; the
// buffers and addresses it populates are valid only until the next
// ReadBatch on the same instance. WriteBatch sends ms[i].Buf[:ms[i].N] to
// ms[i].Addr and returns how many were handed to the kernel; a short
// count comes with the error that stopped the batch, and the caller owns
// retrying the remainder (the reflector retries them one at a time so
// per-packet drop accounting stays exact).
//
// A BatchConn instance is not safe for concurrent ReadBatch or
// concurrent WriteBatch calls; the sharded reflector wraps one instance
// per shard over the same socket.
type BatchConn interface {
	net.PacketConn
	ReadBatch(ms []Message) (int, error)
	WriteBatch(ms []Message) (int, error)
}

// BatchWriter is the sender-side half of the batch interface: SendSlots
// probes for it on its conn and, when present, emits each probe's packet
// bunch with a single call. Implementations must tolerate a nil Message
// Addr (the connected peer). Any shortfall or error makes the sender
// fall back to per-packet Write for the batch's remainder, so write
// failures keep their per-packet accounting.
type BatchWriter interface {
	WriteBatch(ms []Message) (int, error)
}

// NewBatchWriter returns a persistent batch writer for a connected UDP
// socket (sendmmsg on linux), or nil when the platform or socket cannot
// batch — callers then stay on per-packet writes.
func NewBatchWriter(conn net.Conn) BatchWriter {
	if u, ok := conn.(*net.UDPConn); ok {
		if bw := newUDPBatchWriter(u); bw != nil {
			return bw
		}
	}
	return nil
}

// NewBatchConn wraps conn in a BatchConn. Wrapping prefers, in order:
// conn's own batch implementation (chaos.ImpairedConn implements the
// interface so fault injection sees every datagram individually), the
// platform multi-message syscalls for *net.UDPConn (unless disabled),
// and a portable single-packet fallback. Each call returns an
// independent instance: shards wrap the same socket once each.
func NewBatchConn(conn net.PacketConn, disable bool) BatchConn {
	if bc, ok := conn.(BatchConn); ok {
		return bc
	}
	if !disable {
		if u, ok := conn.(*net.UDPConn); ok {
			if bc := newMmsgConn(u); bc != nil {
				return bc
			}
		}
	}
	return &fallbackConn{PacketConn: conn}
}

// fallbackConn adapts any net.PacketConn to the batch interface with
// single-packet syscalls: ReadBatch delivers exactly one datagram per
// call (a blocking ReadFrom cannot know whether a second is pending) and
// WriteBatch loops WriteTo. It is the semantic reference the mmsg path
// is tested against.
type fallbackConn struct {
	net.PacketConn
}

func (c *fallbackConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, addr, err := c.ReadFrom(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N = n
	ms[0].Addr = addr
	return 1, nil
}

func (c *fallbackConn) WriteBatch(ms []Message) (int, error) {
	for i := range ms {
		if _, err := c.writeOne(&ms[i]); err != nil {
			return i, err
		}
	}
	return len(ms), nil
}

func (c *fallbackConn) writeOne(m *Message) (int, error) {
	if m.Addr == nil {
		if w, ok := c.PacketConn.(net.Conn); ok {
			return w.Write(m.Payload())
		}
		return 0, errors.New("wire: nil addr on unconnected conn")
	}
	return c.WriteTo(m.Payload(), m.Addr)
}

// MakeMessages builds a reusable batch of n messages, each owning a
// maxDatagram-byte buffer.
func MakeMessages(n int) []Message {
	backing := make([]byte, n*maxDatagram)
	ms := make([]Message, n)
	for i := range ms {
		ms[i].Buf = backing[i*maxDatagram : (i+1)*maxDatagram : (i+1)*maxDatagram]
	}
	return ms
}
