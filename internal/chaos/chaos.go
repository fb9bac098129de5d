// Package chaos is a deterministic, seeded fault-injection layer for the
// wire substrate. ImpairedConn wraps any net.PacketConn and injects drop,
// duplicate, reorder, delay, truncate and corrupt faults — independently
// per direction, at configurable rates, optionally modulated by a
// Gilbert-style on/off burst process — so the measurement stack's failure
// handling (liveness handshakes, watchdogs, retry policies, partial-result
// aborts) can be exercised under -race in ordinary unit tests instead of
// on a broken network.
//
// Determinism: every fault decision is drawn from a per-direction
// math/rand stream seeded at Wrap time, so a given seed and packet
// sequence always produces the same impairment pattern. Two directions use
// decoupled streams, making each direction's pattern independent of how
// reads and writes interleave.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"badabing/internal/wire"
)

// Fault is one direction's impairment profile. All rates are
// probabilities in [0,1] applied per packet; the zero value passes
// traffic through untouched.
type Fault struct {
	// Drop is the probability of silently discarding a packet.
	Drop float64
	// Duplicate is the probability of delivering a packet twice.
	Duplicate float64
	// Reorder is the probability of holding a packet back and delivering
	// it after the next packet (adjacent swap).
	Reorder float64
	// Delay is the probability of delaying a packet by a uniform draw
	// from [DelayMin, DelayMax].
	Delay              float64
	DelayMin, DelayMax time.Duration
	// Truncate is the probability of cutting a packet to a random
	// shorter length (possibly below the wire header size, which the
	// collector must treat as loss, never crash on).
	Truncate float64
	// Corrupt is the probability of flipping one random byte.
	Corrupt float64

	// Gilbert-style burst episodes: when BurstEnter > 0, a two-state
	// on/off process modulates loss. Each packet advances the state
	// (good→bad with BurstEnter, bad→good with BurstExit); while bad,
	// packets drop with probability BurstDrop (default 1). This produces
	// the correlated loss episodes the paper's estimator is designed to
	// measure — and distinguishes them from infrastructure death, which
	// the failure layer must handle out-of-band.
	BurstEnter float64
	BurstExit  float64
	BurstDrop  float64
}

// enabled reports whether the profile does anything at all.
func (f Fault) enabled() bool {
	return f.Drop > 0 || f.Duplicate > 0 || f.Reorder > 0 || f.Delay > 0 ||
		f.Truncate > 0 || f.Corrupt > 0 || f.BurstEnter > 0
}

// Stats counts the faults a direction has applied.
type Stats struct {
	Packets      uint64 // packets that entered this direction
	Dropped      uint64 // uniform drops
	BurstDropped uint64 // drops while in the Gilbert bad state
	Duplicated   uint64
	Reordered    uint64
	Delayed      uint64
	Truncated    uint64
	Corrupted    uint64
}

// packet is a buffered datagram with its delivery modifications applied.
type packet struct {
	data  []byte
	addr  net.Addr
	delay time.Duration
}

// direction holds one side's fault state. Its own mutex serializes fault
// decisions so the read and write paths never contend on each other.
type direction struct {
	mu    sync.Mutex
	f     Fault
	rng   *rand.Rand
	bad   bool    // Gilbert state
	held  *packet // reorder hold, delivered after the next packet
	ready []packet
	stats Stats
}

// outcome is the fault decision for one packet.
type outcome struct {
	drop    bool
	dup     bool
	reorder bool
	delay   time.Duration
}

// decide draws this packet's faults and applies the in-place mutations
// (corrupt, truncate). Caller holds d.mu.
func (d *direction) decide(data []byte) ([]byte, outcome) {
	var o outcome
	f := &d.f
	d.stats.Packets++
	if f.BurstEnter > 0 {
		if !d.bad {
			d.bad = d.rng.Float64() < f.BurstEnter
		} else {
			d.bad = !(d.rng.Float64() < f.BurstExit)
		}
		if d.bad {
			burstDrop := f.BurstDrop
			if burstDrop == 0 {
				burstDrop = 1
			}
			if d.rng.Float64() < burstDrop {
				d.stats.BurstDropped++
				o.drop = true
				return data, o
			}
		}
	}
	if f.Drop > 0 && d.rng.Float64() < f.Drop {
		d.stats.Dropped++
		o.drop = true
		return data, o
	}
	if f.Corrupt > 0 && d.rng.Float64() < f.Corrupt && len(data) > 0 {
		data[d.rng.Intn(len(data))] ^= 1 << uint(d.rng.Intn(8))
		d.stats.Corrupted++
	}
	if f.Truncate > 0 && d.rng.Float64() < f.Truncate && len(data) > 1 {
		data = data[:1+d.rng.Intn(len(data)-1)]
		d.stats.Truncated++
	}
	if f.Duplicate > 0 && d.rng.Float64() < f.Duplicate {
		d.stats.Duplicated++
		o.dup = true
	}
	if f.Reorder > 0 && d.rng.Float64() < f.Reorder {
		d.stats.Reordered++
		o.reorder = true
	}
	if f.Delay > 0 && d.rng.Float64() < f.Delay {
		span := f.DelayMax - f.DelayMin
		o.delay = f.DelayMin
		if span > 0 {
			o.delay += time.Duration(d.rng.Int63n(int64(span)))
		}
		if o.delay > 0 {
			d.stats.Delayed++
		}
	}
	return data, o
}

// ImpairedConn injects faults into both directions of a net.PacketConn.
// Inbound faults apply to packets surfaced by ReadFrom, outbound faults
// to packets submitted through WriteTo. Fault profiles can be swapped at
// runtime (SetInbound/SetOutbound) — the FlakyReflector uses that to hang
// and recover a live socket.
type ImpairedConn struct {
	inner net.PacketConn
	in    direction
	out   direction

	wmu    sync.Mutex // serializes underlying writes (incl. delayed ones)
	closed sync.Once
	wg     sync.WaitGroup // delayed writes in flight
	dead   chan struct{}
}

// Wrap builds an ImpairedConn over conn. The two directions draw from
// decoupled RNG streams derived from seed, so the same seed and packet
// sequence reproduces the same fault pattern regardless of read/write
// interleaving.
func Wrap(conn net.PacketConn, inbound, outbound Fault, seed int64) *ImpairedConn {
	c := &ImpairedConn{inner: conn, dead: make(chan struct{})}
	c.in.f = inbound
	c.in.rng = rand.New(rand.NewSource(seed))
	c.out.f = outbound
	c.out.rng = rand.New(rand.NewSource(seed ^ 0x5E3779B97F4A7C15))
	return c
}

// SetInbound swaps the inbound fault profile at runtime.
func (c *ImpairedConn) SetInbound(f Fault) {
	c.in.mu.Lock()
	c.in.f = f
	c.in.mu.Unlock()
}

// SetOutbound swaps the outbound fault profile at runtime.
func (c *ImpairedConn) SetOutbound(f Fault) {
	c.out.mu.Lock()
	c.out.f = f
	c.out.mu.Unlock()
}

// ReadFrom surfaces the next surviving inbound packet, applying the
// inbound fault profile. Dropped packets are consumed and skipped; a
// reordered packet is held until the packet behind it has been delivered;
// duplicates are delivered back to back; a delayed packet sleeps its
// delay before delivery (modelling added latency — packets queued behind
// it wait too, like a real bottleneck).
func (c *ImpairedConn) ReadFrom(p []byte) (int, net.Addr, error) {
	d := &c.in
	for {
		d.mu.Lock()
		if len(d.ready) > 0 {
			pkt := d.ready[0]
			d.ready = d.ready[1:]
			c.releaseHold(d)
			d.mu.Unlock()
			return c.deliver(pkt, p)
		}
		d.mu.Unlock()

		n, addr, err := c.inner.ReadFrom(p)
		if err != nil {
			return n, addr, err
		}

		d.mu.Lock()
		if !d.f.enabled() {
			d.mu.Unlock()
			return n, addr, nil
		}
		data, o := d.decide(p[:n])
		if o.drop {
			d.mu.Unlock()
			continue
		}
		buf := append([]byte(nil), data...)
		pkt := packet{data: buf, addr: addr, delay: o.delay}
		if o.reorder && d.held == nil {
			// Hold this packet; it is released behind the next one.
			d.held = &pkt
			d.mu.Unlock()
			continue
		}
		if o.dup {
			d.ready = append(d.ready, packet{data: buf, addr: addr})
		}
		c.releaseHold(d)
		d.mu.Unlock()
		return c.deliver(pkt, p)
	}
}

// releaseHold moves a held (reordered) packet into the ready queue once a
// packet that overtook it is being delivered. Caller holds d.mu.
func (c *ImpairedConn) releaseHold(d *direction) {
	if d.held != nil {
		d.ready = append(d.ready, *d.held)
		d.held = nil
	}
}

func (c *ImpairedConn) deliver(pkt packet, p []byte) (int, net.Addr, error) {
	if pkt.delay > 0 {
		time.Sleep(pkt.delay)
	}
	return copy(p, pkt.data), pkt.addr, nil
}

// WriteTo submits a packet through the outbound fault profile. Drops
// report success (the network ate it, not the caller); delayed packets
// are written by a timer and can naturally overtake later writes.
func (c *ImpairedConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	d := &c.out
	d.mu.Lock()
	if !d.f.enabled() {
		d.mu.Unlock()
		c.wmu.Lock()
		defer c.wmu.Unlock()
		return c.inner.WriteTo(p, addr)
	}
	data, o := d.decide(append([]byte(nil), p...))
	if o.drop {
		d.mu.Unlock()
		return len(p), nil
	}
	pkt := packet{data: data, addr: addr, delay: o.delay}
	var flush []packet
	if o.reorder && d.held == nil {
		d.held = &pkt
		d.mu.Unlock()
		return len(p), nil
	}
	if d.held != nil {
		flush = append(flush, *d.held)
		d.held = nil
	}
	d.mu.Unlock()

	c.send(pkt)
	if o.dup {
		c.send(packet{data: pkt.data, addr: addr})
	}
	for _, held := range flush {
		c.send(held)
	}
	return len(p), nil
}

// ReadBatch implements wire.BatchConn by delivering exactly one
// surviving inbound packet per call: fault decisions are drawn per
// packet from the same RNG stream in the same order as ReadFrom, so an
// impaired path behaves identically whether the wire stack reads it
// batched or packet-at-a-time (the chaos matrix pins the resulting
// estimates bit-identical).
func (c *ImpairedConn) ReadBatch(ms []wire.Message) (int, error) {
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

// WriteBatch implements wire.BatchConn by routing every message through
// the per-packet outbound fault path.
func (c *ImpairedConn) WriteBatch(ms []wire.Message) (int, error) {
	for i := range ms {
		if ms[i].Addr == nil {
			return i, fmt.Errorf("chaos: batch write without destination")
		}
		if _, err := c.WriteTo(ms[i].Buf[:ms[i].N], ms[i].Addr); err != nil {
			return i, err
		}
	}
	return len(ms), nil
}

// send writes a packet now or, if delayed, from a timer goroutine.
func (c *ImpairedConn) send(pkt packet) {
	write := func() {
		select {
		case <-c.dead:
			return
		default:
		}
		c.wmu.Lock()
		defer c.wmu.Unlock()
		c.inner.WriteTo(pkt.data, pkt.addr)
	}
	if pkt.delay <= 0 {
		write()
		return
	}
	c.wg.Add(1)
	time.AfterFunc(pkt.delay, func() {
		defer c.wg.Done()
		write()
	})
}

// Close flushes in-flight delayed writes, then closes the wrapped socket.
func (c *ImpairedConn) Close() error {
	var err error
	c.closed.Do(func() {
		close(c.dead)
		c.wg.Wait()
		err = c.inner.Close()
	})
	return err
}

// LocalAddr returns the wrapped socket's local address.
func (c *ImpairedConn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// SetDeadline delegates to the wrapped socket.
func (c *ImpairedConn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline delegates to the wrapped socket.
func (c *ImpairedConn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline delegates to the wrapped socket.
func (c *ImpairedConn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
