//go:build linux && (amd64 || arm64)

// Syscall-count pins for the batch path. Packets per syscall is the part
// of a reflecting server's per-packet cost that the host's speed does
// not change, and it is what recvmmsg/sendmmsg exist to buy, so these
// pins read the same on any machine and at any GOMAXPROCS. They build
// wherever batch_linux.go does, and there a fallback to single-packet
// I/O is a failure, not a skip.
package wire

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// mmsgCalls counts the recvmmsg and sendmmsg calls of one mmsgConn that
// moved packets; a call that found the socket empty (EAGAIN) moves none
// and is not counted.
type mmsgCalls struct {
	reads, readPkts, writes, writePkts atomic.Int64
}

// countMmsgCalls wraps c's persistent raw-conn callbacks so every
// ReadBatch and WriteBatch after it is counted.
func countMmsgCalls(c *mmsgConn) *mmsgCalls {
	n := &mmsgCalls{}
	read, write := c.readFn, c.writeFn
	c.readFn = func(fd uintptr) bool {
		done := read(fd)
		if done && c.rgot > 0 {
			n.reads.Add(1)
			n.readPkts.Add(int64(c.rgot))
		}
		return done
	}
	c.writeFn = func(fd uintptr) bool {
		done := write(fd)
		if done && c.wsent > 0 {
			n.writes.Add(1)
			n.writePkts.Add(int64(c.wsent))
		}
		return done
	}
	return n
}

// TestReflectorBatchSyscallCounts: a one-shard reflector echoes
// 4 × DefaultBatch probe frames that were queued before Run in exactly 4
// recvmmsg and 4 sendmmsg calls.
func TestReflectorBatchSyscallCounts(t *testing.T) {
	const batches = 4
	conn := udpListener(t)
	conn.SetReadBuffer(1 << 20) // room for every queued frame whatever the host's default
	r := NewReflectorConfig(conn, ReflectorConfig{Shards: 1})
	mc, ok := r.shards[0].bc.(*mmsgConn)
	if !ok {
		t.Fatalf("the reflector's shard reads through a %T, want *mmsgConn", r.shards[0].bc)
	}
	calls := countMmsgCalls(mc)

	client, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetReadBuffer(1 << 20)
	for i := 0; i < batches*DefaultBatch; i++ {
		if _, err := client.Write(probeFrame(t, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() {
		r.Run()
		close(done)
	}()
	buf := make([]byte, maxDatagram)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < batches*DefaultBatch; i++ {
		if _, err := client.Read(buf); err != nil {
			t.Fatalf("echo %d of %d: %v", i, batches*DefaultBatch, err)
		}
	}
	r.Close()
	<-done

	if got := calls.reads.Load(); got != batches {
		t.Errorf("%d recvmmsg calls moved packets, want %d", got, batches)
	}
	if got := calls.writes.Load(); got != batches {
		t.Errorf("%d sendmmsg calls moved packets, want %d", got, batches)
	}
	if rp, wp := calls.readPkts.Load(), calls.writePkts.Load(); rp != batches*DefaultBatch || wp != batches*DefaultBatch {
		t.Errorf("recvmmsg moved %d packets and sendmmsg %d, want %d each", rp, wp, batches*DefaultBatch)
	}
}

// TestSendSlotsBatchSyscallCounts: SendSlots sends each probe's
// PacketsPerProbe packets with one sendmmsg call, and a connected UDP
// socket gets that batch writer.
func TestSendSlotsBatchSyscallCounts(t *testing.T) {
	sink := udpListener(t)
	sink.SetReadBuffer(1 << 20)
	conn, err := net.DialUDP("udp", nil, sink.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := NewBatchWriter(conn)
	if _, ok := bw.(*mmsgConn); !ok {
		t.Fatalf("NewBatchWriter gave a connected UDP socket a %T, want *mmsgConn", bw)
	}
	mc := newMmsgConn(conn).(*mmsgConn)
	calls := countMmsgCalls(mc)

	cfg := SenderConfig{ExpID: 1, P: 0.5, N: 16, Slot: time.Millisecond, Seed: 1}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	slots := make([]int64, cfg.N)
	for i := range slots {
		slots[i] = int64(i)
	}
	st, err := SendSlots(context.Background(), mc, cfg, slots, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	probes, pkts := int64(len(slots)), int64(len(slots)*cfg.PacketsPerProbe)
	if got := calls.writes.Load(); got != probes {
		t.Errorf("%d sendmmsg calls for %d probes, want one per probe", got, probes)
	}
	if got := calls.writePkts.Load(); got != pkts || int64(st.Packets) != pkts {
		t.Errorf("sendmmsg moved %d packets and SendStats counts %d, want %d", got, st.Packets, pkts)
	}
}
