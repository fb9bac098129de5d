package wire

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
)

// Reflector is the minimal collaborating far end of a round-trip BADABING
// session: it bounces every datagram straight back to its source. A sender
// that runs its own collector on the probing socket then measures the
// round-trip loss of the reflected path — the deployment shape badabingd's
// "wire" scenario uses, where only a dumb echo service is needed at the
// remote host.
//
// The echo loop is the fleet-scale bottleneck (Ekelin et al.: reflecting-
// server throughput bounds how many paths a measurement system can carry),
// so it is built for throughput: datagrams move in recvmmsg/sendmmsg
// batches where the platform allows (single-packet fallback elsewhere),
// the loop allocates nothing on the steady path, and the work is sharded
// across Config.Shards goroutines, each with its own batch state and
// counters. Counter accessors aggregate across shards.
type Reflector struct {
	conn net.PacketConn
	cfg  ReflectorConfig

	shards   []*reflShard
	readErrs errorNote

	mu     sync.Mutex
	tap    func(data []byte, from net.Addr)
	closed bool
	ran    bool
}

// ReflectorConfig tunes the echo loop.
type ReflectorConfig struct {
	// Shards is how many echo goroutines serve the socket. Each shard
	// reads, classifies and echoes its own batches; the kernel delivers
	// any given datagram to exactly one reader. Default 1 (the classic
	// single-loop reflector); a daemon-hosted reflector wants ~NumCPU.
	Shards int
	// DisableBatch forces the portable single-packet read/write path
	// even where multi-message syscalls exist (benchmarks use it as the
	// baseline; the chaos matrix proves estimates match either way).
	DisableBatch bool
}

func (c *ReflectorConfig) applyDefaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
}

// DefaultReflectorShards is the shard count a daemon-hosted reflector
// uses: one per CPU, capped — reflector shards pipeline reads against
// echo writes, and past a handful the socket lock, not the CPU, is the
// limit.
func DefaultReflectorShards() int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// reflShard is one echo goroutine's private state: its own batch view of
// the shared socket, reusable message buffers, and counters (padded
// apart by allocation; contention-free).
type reflShard struct {
	bc   BatchConn
	in   []Message
	out  []Message
	pong [][]byte // per-slot scratch for pong frames

	packets atomic.Uint64
	dropped atomic.Uint64
	pings   atomic.Uint64
}

// NewReflector wraps an open packet socket with the default single-shard
// configuration. Call Run (usually on its own goroutine) to start
// echoing.
func NewReflector(conn net.PacketConn) *Reflector {
	return NewReflectorConfig(conn, ReflectorConfig{})
}

// NewReflectorConfig wraps an open packet socket with explicit sharding.
// Each shard moves up to DefaultBatch datagrams per syscall. Call Run to
// start echoing.
func NewReflectorConfig(conn net.PacketConn, cfg ReflectorConfig) *Reflector {
	cfg.applyDefaults()
	r := &Reflector{conn: conn, cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		s := &reflShard{
			bc:  NewBatchConn(conn, cfg.DisableBatch),
			in:  MakeMessages(DefaultBatch),
			out: make([]Message, 0, DefaultBatch),
		}
		s.pong = make([][]byte, DefaultBatch)
		for j := range s.pong {
			s.pong[j] = make([]byte, livenessSize)
		}
		r.shards = append(r.shards, s)
	}
	return r
}

// SetTap installs an observer invoked with each datagram before it is
// echoed (tests use it to record the probe stream). Call before Run.
// With multiple shards the tap is invoked concurrently; the data slice
// is only valid for the duration of the call.
func (r *Reflector) SetTap(tap func(data []byte, from net.Addr)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tap = tap
}

// OnReadError installs a hook surfaced once per persistent read-error
// class (see errorNote): transient errors keep the loop alive, but a
// *persistent* EMSGSIZE-class condition must reach an operator instead
// of spinning silently. Call before Run.
func (r *Reflector) OnReadError(hook func(error)) {
	r.readErrs.setHook(hook)
}

// ReadErrors returns how many transient read errors the loops have
// survived and the current error class ("" after a clean start). The
// count is monotone across shards and profile changes.
func (r *Reflector) ReadErrors() (uint64, string) {
	return r.readErrs.snapshot()
}

// Run echoes datagrams until the socket is closed, fanning the work
// across the configured shards and blocking until every shard has
// drained. Liveness pings are answered with pongs instead of echoed, and
// are tallied separately so probe accounting stays exact.
func (r *Reflector) Run() {
	r.mu.Lock()
	tap := r.tap
	r.ran = true
	r.mu.Unlock()
	var wg sync.WaitGroup
	for _, s := range r.shards[1:] {
		wg.Add(1)
		go func(s *reflShard) {
			defer wg.Done()
			r.runShard(s, tap)
		}(s)
	}
	r.runShard(r.shards[0], tap)
	wg.Wait()
}

// runShard is one shard's echo loop: read a batch, classify each
// datagram (liveness ping → pooled pong, anything else → echo), then
// write the batch back. The steady path allocates nothing.
func (r *Reflector) runShard(s *reflShard, tap func(data []byte, from net.Addr)) {
	for {
		n, err := s.bc.ReadBatch(s.in)
		if err != nil {
			if transientReadError(err) {
				// An ICMP-unreachable burst from a vanished peer
				// surfaces as read errors; the socket is still good
				// and other peers must keep being served. Surfaced
				// (once per class) rather than silently swallowed.
				r.readErrs.note(err)
				continue
			}
			return
		}
		r.serveBatch(s, tap, n)
	}
}

// serveBatch classifies one received batch — liveness ping → pooled
// pong, anything else → echo — and writes the answers back. It is the
// per-batch unit of work the zero-alloc regression test pins.
func (r *Reflector) serveBatch(s *reflShard, tap func(data []byte, from net.Addr), n int) {
	out := s.out[:0]
	for i := 0; i < n; i++ {
		m := &s.in[i]
		data := m.Payload()
		if kind, nonce, _, ok := parseLiveness(data); ok {
			if kind == livenessPing {
				s.pings.Add(1)
				nb := putLiveness(s.pong[i], livenessPong, nonce, nowNano())
				out = append(out, Message{Buf: s.pong[i], N: nb, Addr: m.Addr})
			}
			continue
		}
		s.packets.Add(1)
		if tap != nil {
			tap(data, m.Addr)
		}
		out = append(out, Message{Buf: m.Buf, N: m.N, Addr: m.Addr})
	}
	r.echo(s, out)
}

// echo writes the shard's outgoing batch, falling back to per-packet
// writes on a batch error so drop accounting stays exact.
func (r *Reflector) echo(s *reflShard, out []Message) {
	sent := 0
	for sent < len(out) {
		n, err := s.bc.WriteBatch(out[sent:])
		sent += n
		if err == nil && n > 0 {
			continue
		}
		// The message the batch stopped on gets an individual retry; a
		// second failure is a genuine drop (far-side write impairment,
		// surfaced via Dropped like always).
		for _, m := range out[sent:] {
			if _, werr := r.conn.WriteTo(m.Payload(), m.Addr); werr != nil {
				s.dropped.Add(1)
			}
		}
		return
	}
}

// Packets returns how many datagrams have been received so far across
// all shards (liveness pings excluded; see Pings).
func (r *Reflector) Packets() uint64 {
	var t uint64
	for _, s := range r.shards {
		t += s.packets.Load()
	}
	return t
}

// Pings returns how many liveness pings have been answered.
func (r *Reflector) Pings() uint64 {
	var t uint64
	for _, s := range r.shards {
		t += s.pings.Load()
	}
	return t
}

// Dropped returns how many echo (or pong) writes failed. A non-zero count
// with a live socket means the reflector's send path is impaired — the
// far-side write-failure signal badabingd surfaces in /metrics.
func (r *Reflector) Dropped() uint64 {
	var t uint64
	for _, s := range r.shards {
		t += s.dropped.Load()
	}
	return t
}

// ShardCounters is one shard's tally, for per-shard metrics rows.
type ShardCounters struct {
	Packets, Pings, Dropped uint64
}

// ShardCounts returns each shard's counters (index = shard id). The
// aggregate accessors above are the sums of these rows.
func (r *Reflector) ShardCounts() []ShardCounters {
	out := make([]ShardCounters, len(r.shards))
	for i, s := range r.shards {
		out[i] = ShardCounters{
			Packets: s.packets.Load(),
			Pings:   s.pings.Load(),
			Dropped: s.dropped.Load(),
		}
	}
	return out
}

// Shards returns the configured shard count.
func (r *Reflector) Shards() int { return len(r.shards) }

// Addr returns the socket's local address.
func (r *Reflector) Addr() net.Addr { return r.conn.LocalAddr() }

// Close shuts the socket, terminating every shard of Run.
func (r *Reflector) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	return r.conn.Close()
}
