// Package gateway implements a userspace UDP impairment proxy: a
// bandwidth-limited, fixed-delay, finite-buffer forwarding element that
// stands in for the congested path of the paper's testbed when the real
// BADABING tool is exercised over real sockets.
//
// The gateway models the Figure 1 system: packets entering faster than the
// configured rate accumulate in a drop-tail queue of QueueBytes; overflow
// is loss. A built-in episode generator adds fluid cross traffic that
// periodically overloads the queue, creating loss episodes of a configured
// duration at exponentially spaced intervals — the same workload shape as
// the paper's Iperf scenario, but on a live socket path. The queue feeds a
// capture.Delineator, so the gateway reports the ground truth of the
// episodes it makes.
package gateway

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"badabing/internal/capture"
)

// Config parameterizes a Gateway.
type Config struct {
	// Listen is the UDP address to receive on, e.g. "127.0.0.1:9000".
	Listen string
	// Target is where accepted packets are forwarded.
	Target string
	// BitsPerSec is the emulated link rate. Default 10 Mb/s.
	BitsPerSec int64
	// Delay is the emulated one-way propagation delay. Default 20 ms.
	Delay time.Duration
	// QueueBytes is the drop-tail buffer size. Default 100 ms at the
	// link rate.
	QueueBytes int
	// EpisodeEvery is the mean spacing between loss episodes
	// (exponential). Zero disables the episode generator.
	EpisodeEvery time.Duration
	// EpisodeDuration is each episode's length. Default 100 ms.
	EpisodeDuration time.Duration
	// EpisodeOverload is the cross-traffic rate during an episode as a
	// multiple of the link rate. Default 1.5.
	EpisodeOverload float64
	// Seed for episode spacing. Default 1.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.BitsPerSec == 0 {
		c.BitsPerSec = 10_000_000
	}
	if c.Delay == 0 {
		c.Delay = 20 * time.Millisecond
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = int(c.BitsPerSec / 8 / 10) // 100 ms
	}
	if c.EpisodeDuration == 0 {
		c.EpisodeDuration = 100 * time.Millisecond
	}
	if c.EpisodeOverload == 0 {
		c.EpisodeOverload = 1.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Gateway is a running impairment proxy.
type Gateway struct {
	cfg    Config
	in     *net.UDPConn
	out    *net.UDPConn
	done   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once

	mu         sync.Mutex
	start      time.Time // time zero of the ground truth
	truth      *capture.Delineator
	occ        float64 // queue occupancy, bytes
	lastDrain  time.Time
	crossBps   float64 // current cross-traffic rate, bits/s
	crossRem   float64 // fractional cross bytes carried between updates
	episodes   int
	forwarded  uint64
	dropped    uint64
	lastClient *net.UDPAddr // source of the most recent inbound packet
}

const crossPkt = 1500 // virtual cross-traffic packet size

// New starts a gateway. Close it to release its sockets.
func New(cfg Config) (*Gateway, error) {
	cfg.applyDefaults()
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen addr: %w", err)
	}
	taddr, err := net.ResolveUDPAddr("udp", cfg.Target)
	if err != nil {
		return nil, fmt.Errorf("gateway: target addr: %w", err)
	}
	in, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen: %w", err)
	}
	out, err := net.DialUDP("udp", nil, taddr)
	if err != nil {
		in.Close()
		return nil, fmt.Errorf("gateway: dial target: %w", err)
	}
	start := time.Now()
	g := &Gateway{
		cfg:       cfg,
		in:        in,
		out:       out,
		done:      make(chan struct{}),
		start:     start,
		truth:     capture.NewDelineator(cfg.QueueBytes),
		lastDrain: start,
	}
	g.wg.Add(1)
	go g.readLoop()
	g.wg.Add(1)
	go g.reverseLoop()
	if cfg.EpisodeEvery > 0 {
		g.wg.Add(1)
		go g.episodeLoop()
	}
	return g, nil
}

// reverseLoop relays the target's replies (e.g. control-channel answers)
// back to the most recent client, after the propagation delay. The
// reverse direction models an uncongested return path, as in the paper's
// testbed.
func (g *Gateway) reverseLoop() {
	defer g.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, err := g.out.Read(buf)
		if err != nil {
			return
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		g.mu.Lock()
		client := g.lastClient
		g.mu.Unlock()
		if client == nil {
			continue
		}
		time.AfterFunc(g.cfg.Delay, func() {
			select {
			case <-g.done:
				return
			default:
			}
			g.in.WriteToUDP(pkt, client)
		})
	}
}

// Addr returns the address the gateway listens on.
func (g *Gateway) Addr() net.Addr { return g.in.LocalAddr() }

// Stats returns forwarded and dropped packet counts and the number of
// episodes generated so far.
func (g *Gateway) Stats() (forwarded, dropped uint64, episodes int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.forwarded, g.dropped, g.episodes
}

// Truth returns the ground truth of the loss the gateway's queue has made
// over [0, now), measured from New, at the given slot width. The last
// episode may still be in progress.
func (g *Gateway) Truth(slot time.Duration) capture.Truth {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now()
	g.drainLocked(now)
	return g.truth.Truth(now.Sub(g.start), slot)
}

// Close stops the gateway and releases its sockets.
func (g *Gateway) Close() {
	g.closed.Do(func() {
		close(g.done)
		g.in.Close()
		g.out.Close()
	})
	g.wg.Wait()
}

// drainLocked advances the fluid queue model to now: the queue drains at
// the link rate and any active cross traffic refills it (excess is lost
// fluid — the cross traffic experiencing the loss episode). The truth
// sees the occupancy after each drain step, and each cross quantum's
// arrival or drop at its interpolated time.
func (g *Gateway) drainLocked(now time.Time) {
	prev := g.lastDrain
	dt := now.Sub(prev).Seconds()
	if dt <= 0 {
		return
	}
	g.lastDrain = now
	drainBytes := float64(g.cfg.BitsPerSec) / 8 * dt
	quanta := 0
	if g.crossBps > 0 {
		// Interleave cross arrivals and drain in crossPkt quanta so
		// probe arrivals see realistic occupancy fluctuation rather
		// than a queue pinned exactly at capacity.
		arriveBytes := g.crossBps/8*dt + g.crossRem
		quanta = int(arriveBytes / crossPkt)
		g.crossRem = arriveBytes - float64(quanta*crossPkt)
	}
	if quanta == 0 {
		g.occ = max(g.occ-drainBytes, 0)
		g.truth.Depart(int(g.occ))
		return
	}
	drainPerQuantum := drainBytes / float64(quanta)
	cap := float64(g.cfg.QueueBytes)
	for i := 1; i <= quanta; i++ {
		g.occ = max(g.occ-drainPerQuantum, 0)
		g.truth.Depart(int(g.occ))
		g.truth.Arrive(int(g.occ))
		if g.occ+crossPkt <= cap {
			g.occ += crossPkt
		} else { // cross packet dropped (fluid loss), queue stays full
			g.truth.Drop(prev.Sub(g.start) + now.Sub(prev)*time.Duration(i)/time.Duration(quanta))
		}
	}
}

func (g *Gateway) readLoop() {
	defer g.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, addr, err := g.in.ReadFromUDP(buf)
		if err != nil {
			return
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		g.handle(pkt, addr)
	}
}

// handle queues pkt from addr or drops it. The clock is read under g.mu,
// so events reach the truth in time order.
func (g *Gateway) handle(pkt []byte, addr *net.UDPAddr) {
	g.mu.Lock()
	g.lastClient = addr
	now := time.Now()
	g.drainLocked(now)
	g.truth.Arrive(int(g.occ))
	if g.occ+float64(len(pkt)) > float64(g.cfg.QueueBytes) {
		g.truth.Drop(now.Sub(g.start))
		g.dropped++
		g.mu.Unlock()
		return
	}
	g.occ += float64(len(pkt))
	queueDelay := time.Duration(g.occ / (float64(g.cfg.BitsPerSec) / 8) * float64(time.Second))
	g.forwarded++
	g.mu.Unlock()

	delay := g.cfg.Delay + queueDelay
	time.AfterFunc(delay, func() {
		select {
		case <-g.done:
			return
		default:
		}
		g.out.Write(pkt)
	})
}

func (g *Gateway) episodeLoop() {
	defer g.wg.Done()
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(g.cfg.EpisodeEvery))
		if min := g.cfg.EpisodeDuration * 3; gap < min {
			gap = min
		}
		select {
		case <-g.done:
			return
		case <-time.After(gap):
		}
		// Episode start: abrupt overload — prefill the queue and turn
		// on cross traffic.
		g.mu.Lock()
		g.drainLocked(time.Now())
		g.occ = float64(g.cfg.QueueBytes)
		g.crossBps = g.cfg.EpisodeOverload * float64(g.cfg.BitsPerSec)
		g.episodes++
		g.mu.Unlock()

		select {
		case <-g.done:
			return
		case <-time.After(g.cfg.EpisodeDuration):
		}
		g.mu.Lock()
		g.drainLocked(time.Now())
		g.crossBps = 0
		g.mu.Unlock()
	}
}
