package wire

import (
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// openFDs counts this process's open descriptors, or -1 where /proc is
// unavailable.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// probeFrame builds a valid probe datagram for reflector tests.
func probeFrame(t *testing.T, seq uint64) []byte {
	t.Helper()
	h := Header{ExpID: 5, P: 0.3, N: 1000, PktsPerProbe: 3,
		SlotWidth: 5 * time.Millisecond, Seed: 1,
		SendTime: time.Now().UnixNano(), Seq: seq}
	buf := make([]byte, HeaderSize)
	if _, err := h.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestReflectorShardedShutdown proves the sharded reflector's lifecycle
// invariants: Run fans out and serves traffic on every shard, Close makes
// Run return with all shards drained, no goroutine or file descriptor
// outlives the reflector, counters only ever grow, and the per-shard
// rows sum exactly to the aggregates badabingd exports.
func TestReflectorShardedShutdown(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	baseFDs := openFDs()

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := NewReflectorConfig(conn, ReflectorConfig{Shards: 4})
	if r.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", r.Shards())
	}
	done := make(chan struct{})
	go func() {
		r.Run()
		close(done)
	}()

	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const probes, pings = 60, 12
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < probes; i++ {
			client.Write(probeFrame(t, uint64(i)))
		}
		for i := 0; i < pings; i++ {
			client.Write(marshalLiveness(livenessPing, uint64(i), time.Now().UnixNano()))
		}
	}()

	// Counters must be monotone while traffic lands and eventually reach
	// the exact totals (UDP on loopback does not drop).
	var lastP, lastG uint64
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, g := r.Packets(), r.Pings()
		if p < lastP || g < lastG {
			t.Fatalf("counters went backwards: packets %d→%d pings %d→%d", lastP, p, lastG, g)
		}
		lastP, lastG = p, g
		if p == probes && g == pings {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("packets=%d pings=%d, want %d/%d", p, g, probes, pings)
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()

	var sumP, sumG, sumD uint64
	for _, sc := range r.ShardCounts() {
		sumP += sc.Packets
		sumG += sc.Pings
		sumD += sc.Dropped
	}
	if sumP != r.Packets() || sumG != r.Pings() || sumD != r.Dropped() {
		t.Fatalf("shard rows (%d,%d,%d) don't sum to aggregates (%d,%d,%d)",
			sumP, sumG, sumD, r.Packets(), r.Pings(), r.Dropped())
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5s of Close — a shard is stuck")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	client.Close() // the test's own socket must not count as a leak

	// Every shard goroutine and the socket FD must be gone. Poll: exit
	// is asynchronous with Run's return only for the GC of conns, so
	// allow the runtime a moment to settle.
	deadline = time.Now().Add(5 * time.Second)
	for {
		g := runtime.NumGoroutine()
		f := openFDs()
		if g <= baseGoroutines && (baseFDs < 0 || f <= baseFDs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after shutdown: goroutines %d (base %d), fds %d (base %d)",
				g, baseGoroutines, f, baseFDs)
		}
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
}

// scriptedConn is a PacketConn whose reads follow a script of errors and
// datagrams, then report closure. It stands in for a socket suffering a
// persistent error condition (e.g. EMSGSIZE after an MTU/profile change).
type scriptedConn struct {
	mu    sync.Mutex
	steps []scriptStep
	src   net.Addr
}

type scriptStep struct {
	data []byte
	err  error
}

func opErr(errno syscall.Errno) error {
	return &net.OpError{Op: "read", Net: "udp", Err: os.NewSyscallError("recvmmsg", errno)}
}

func (c *scriptedConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.steps) == 0 {
		return 0, nil, net.ErrClosed
	}
	s := c.steps[0]
	c.steps = c.steps[1:]
	if s.err != nil {
		return 0, nil, s.err
	}
	return copy(p, s.data), c.src, nil
}

func (c *scriptedConn) WriteTo(p []byte, addr net.Addr) (int, error) { return len(p), nil }
func (c *scriptedConn) Close() error                                 { return nil }
func (c *scriptedConn) LocalAddr() net.Addr                          { return c.src }
func (c *scriptedConn) SetDeadline(t time.Time) error                { return nil }
func (c *scriptedConn) SetReadDeadline(t time.Time) error            { return nil }
func (c *scriptedConn) SetWriteDeadline(t time.Time) error           { return nil }

// TestReflectorSurfacesPersistentReadErrors is the regression test for
// the swallowed-error fix: a run of EMSGSIZE-class read errors must
// surface exactly once, a change of class must surface exactly once
// more, the loop must keep serving datagrams throughout, and the
// monotone count must tally every error survived.
func TestReflectorSurfacesPersistentReadErrors(t *testing.T) {
	src := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	conn := &scriptedConn{src: src, steps: []scriptStep{
		{err: opErr(syscall.EMSGSIZE)},
		{err: opErr(syscall.EMSGSIZE)},
		{err: opErr(syscall.EMSGSIZE)},
		{data: probeFrame(t, 1)}, // loop still serves mid-condition
		{err: opErr(syscall.ECONNREFUSED)},
		{err: opErr(syscall.ECONNREFUSED)},
	}}
	r := NewReflector(conn)
	var surfaced []string
	r.OnReadError(func(err error) { surfaced = append(surfaced, errClass(err)) })
	r.Run() // returns when the script reports closure

	if r.Packets() != 1 {
		t.Errorf("served %d datagrams through the error runs, want 1", r.Packets())
	}
	want := []string{syscall.EMSGSIZE.Error(), syscall.ECONNREFUSED.Error()}
	if len(surfaced) != len(want) || surfaced[0] != want[0] || surfaced[1] != want[1] {
		t.Errorf("surfaced %v, want one firing per class change: %v", surfaced, want)
	}
	count, class := r.ReadErrors()
	if count != 5 {
		t.Errorf("ReadErrors count = %d, want 5 (monotone tally of every error)", count)
	}
	if class != syscall.ECONNREFUSED.Error() {
		t.Errorf("current class = %q, want %q", class, syscall.ECONNREFUSED.Error())
	}
}

// TestCollectorSurfacesPersistentReadErrors proves the collector's read
// loop has the same once-per-class surfacing: it must outlive the error
// burst, keep recording probes, and report the monotone count.
func TestCollectorSurfacesPersistentReadErrors(t *testing.T) {
	src := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	conn := &scriptedConn{src: src, steps: []scriptStep{
		{err: opErr(syscall.EMSGSIZE)},
		{err: opErr(syscall.EMSGSIZE)},
		{data: probeFrame(t, 1)},       // still collecting mid-condition
		{err: opErr(syscall.EMSGSIZE)}, // same class again: no re-fire
	}}
	c := NewCollector(conn)
	var surfaced []string
	c.OnReadError(func(err error) { surfaced = append(surfaced, errClass(err)) })
	c.Run()

	if got := c.Sessions(); len(got) != 1 || got[0] != 5 {
		t.Errorf("sessions = %v, want [5] — the error burst stopped collection", got)
	}
	if len(surfaced) != 1 || surfaced[0] != syscall.EMSGSIZE.Error() {
		t.Errorf("surfaced %v, want exactly one %q firing", surfaced, syscall.EMSGSIZE.Error())
	}
	count, class := c.ReadErrors()
	if count != 3 || class != syscall.EMSGSIZE.Error() {
		t.Errorf("ReadErrors = (%d, %q), want (3, %q)", count, class, syscall.EMSGSIZE.Error())
	}
}
