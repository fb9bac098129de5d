//go:build !race

// Zero-allocation regression pins for the wire hot path. The batch
// rebuild's whole point is that the steady send/receive/echo path stays
// off the allocator (GC pauses show up directly as pacing error, the
// accuracy-critical quantity); these tests turn that property into a
// tier-1 invariant. Gated from -race because the race runtime adds its
// own allocations.
package wire

import (
	"net"
	"runtime/debug"
	"testing"
	"time"
)

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm up: one-time growth (batch headers, map buckets) is allowed
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s allocates %.2f times per run, want 0", name, avg)
	}
}

// TestProbeCodecZeroAlloc pins Header Marshal/Unmarshal — executed once
// per packet on both ends — at zero heap allocations.
func TestProbeCodecZeroAlloc(t *testing.T) {
	h := Header{ExpID: 7, Slot: 3, PktsPerProbe: 3, P: 0.3, N: 1000,
		SlotWidth: 5 * time.Millisecond, Seed: 11, SendTime: time.Now().UnixNano(), Seq: 9}
	buf := make([]byte, HeaderSize)
	var out Header
	assertZeroAllocs(t, "Header.Marshal", func() {
		if _, err := h.Marshal(buf); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "Header.Unmarshal", func() {
		if err := out.Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLivenessCodecZeroAlloc pins the liveness frame encode (the pooled
// putLiveness the reflector's pong path uses) and decode at zero
// allocations.
func TestLivenessCodecZeroAlloc(t *testing.T) {
	buf := make([]byte, livenessSize)
	assertZeroAllocs(t, "putLiveness", func() {
		putLiveness(buf, livenessPong, 42, 123456789)
	})
	assertZeroAllocs(t, "parseLiveness", func() {
		if _, _, _, ok := parseLiveness(buf); !ok {
			t.Fatal("parseLiveness rejected its own frame")
		}
	})
}

// sinkBatchConn is a BatchConn whose writes vanish: it lets the alloc
// test drive the reflector's full classify+echo iteration without
// sockets. Only WriteBatch is ever called on the serveBatch path.
type sinkBatchConn struct {
	net.PacketConn
}

func (c *sinkBatchConn) ReadBatch(ms []Message) (int, error)  { return 0, net.ErrClosed }
func (c *sinkBatchConn) WriteBatch(ms []Message) (int, error) { return len(ms), nil }

// TestReflectorServeBatchZeroAlloc pins one full reflector batch
// iteration — probe classification, tap dispatch, pooled pong encode,
// batched echo — at zero heap allocations. This is the per-datagram cost
// at fleet scale.
func TestReflectorServeBatchZeroAlloc(t *testing.T) {
	sink := &sinkBatchConn{}
	// NewBatchConn sees the conn's own BatchConn implementation, so the
	// shard batches straight into the sink.
	r := NewReflectorConfig(sink, ReflectorConfig{Shards: 1})
	s := r.shards[0]

	src := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}
	h := Header{ExpID: 7, P: 0.3, N: 1000, PktsPerProbe: 3,
		SlotWidth: 5 * time.Millisecond, Seed: 1, SendTime: time.Now().UnixNano()}
	for i := 0; i < 7; i++ {
		n, err := h.Marshal(s.in[i].Buf)
		if err != nil {
			t.Fatal(err)
		}
		s.in[i].N = n
		s.in[i].Addr = src
	}
	// Slot 7 is a liveness ping, exercising the pooled pong path too.
	s.in[7].N = putLiveness(s.in[7].Buf, livenessPing, 99, time.Now().UnixNano())
	s.in[7].Addr = src

	taps := 0
	tap := func(data []byte, from net.Addr) { taps++ }
	assertZeroAllocs(t, "Reflector.serveBatch", func() {
		r.serveBatch(s, tap, 8)
	})
	if taps == 0 {
		t.Fatal("tap never ran — the batch was not classified")
	}
	if r.Packets() == 0 || r.Pings() == 0 || r.Dropped() != 0 {
		t.Fatalf("counter snapshot packets=%d pings=%d dropped=%d", r.Packets(), r.Pings(), r.Dropped())
	}
}

// TestMmsgBatchZeroAlloc pins the real multi-message syscall path —
// sendmmsg with explicit destinations, recvmmsg with reused address
// storage — at zero allocations per batch, over live loopback sockets.
func TestMmsgBatchZeroAlloc(t *testing.T) {
	recv := udpListener(t)
	send := udpListener(t)
	rbc := NewBatchConn(recv, false)
	wbc := NewBatchConn(send, false)
	if _, ok := rbc.(*fallbackConn); ok {
		t.Skip("no multi-message syscalls on this platform")
	}

	const k = 8
	wms := MakeMessages(k)
	dst := recv.LocalAddr().(*net.UDPAddr)
	for i := 0; i < k; i++ {
		wms[i].N = copy(wms[i].Buf, payloadFor(i))
		wms[i].Addr = dst
	}
	rms := MakeMessages(k)
	if err := recv.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}

	assertZeroAllocs(t, "mmsg write+read batch", func() {
		n, err := wbc.WriteBatch(wms)
		if err != nil || n != k {
			t.Fatalf("WriteBatch = (%d, %v)", n, err)
		}
		for got := 0; got < k; {
			n, err := rbc.ReadBatch(rms)
			if err != nil {
				t.Fatalf("ReadBatch: %v", err)
			}
			got += n
		}
	})
}

// TestCollectorRecordZeroAlloc pins recording a packet into an existing
// record, the newest one or an older one, at zero allocations.
func TestCollectorRecordZeroAlloc(t *testing.T) {
	col := NewCollector(nopConn{})
	h := Header{ExpID: 1, PktsPerProbe: 3, P: 0.3, N: 1000,
		SlotWidth: 5 * time.Millisecond, Seed: 1, SendTime: time.Now().UnixNano()}
	now := time.Now()
	for _, slot := range []int64{3, 7, 9} {
		h.Slot = slot
		col.record(&h, now)
	}
	h.Slot = 9
	assertZeroAllocs(t, "record into the newest record", func() { col.record(&h, now) })
	old := h
	old.Slot = 3
	assertZeroAllocs(t, "record into an older record", func() { col.record(&old, now) })
}

// TestAssembleObsAllocsFlat pins an assembly's allocation count: the
// same at 720 000 slots as at 60 000, because no record is copied. The
// collector is off during the count: a cycle set off by a large buffer
// runs runtime cleanups that allocate, and those would count too.
func TestAssembleObsAllocsFlat(t *testing.T) {
	allocs := func(n int64) float64 {
		col, slots := filledCollector(n)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(3, func() {
			col.AssembleObs(1, slots, refPerProbe, refSlot)
		})
	}
	small, large := allocs(60_000), allocs(720_000)
	t.Logf("AssembleObs allocates %.0f times at 60 000 slots, %.0f at 720 000", small, large)
	if small != large {
		t.Errorf("AssembleObs allocates %.0f times at 60 000 slots but %.0f at 720 000", small, large)
	}
}
