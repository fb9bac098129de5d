package wire

import (
	"context"
	"errors"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestSendSlotsCancelMidRun cancels a paced send partway through its
// schedule: SendSlots must return promptly with the context error and a
// sane partial SendStats — some probes sent, not all, and no spurious
// dead-path verdict.
func TestSendSlotsCancelMidRun(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refl := NewReflector(pc)
	go refl.Run()
	defer refl.Close()

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cfg := SenderConfig{
		ExpID: 11, P: 0.3, N: 1000, Slot: 5 * time.Millisecond, Seed: 11,
	}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	slots := make([]int64, 1000)
	for i := range slots {
		slots[i] = int64(i)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var emitted int
	done := make(chan struct{})
	var st SendStats
	var sendErr error
	go func() {
		defer close(done)
		st, sendErr = SendSlots(ctx, conn, cfg, slots, time.Now(), func(i int, _ SendStats) {
			emitted++
		})
	}()
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("SendSlots did not return after cancellation")
	}

	if !errors.Is(sendErr, context.Canceled) {
		t.Fatalf("SendSlots returned %v, want context.Canceled", sendErr)
	}
	if st.Packets == 0 {
		t.Fatal("no packets sent before cancellation")
	}
	if emitted == 0 || emitted >= len(slots) {
		t.Fatalf("emitted %d probes, want partial progress over %d slots", emitted, len(slots))
	}
	if st.Packets >= len(slots)*cfg.PacketsPerProbe {
		t.Fatalf("stats claim a full send: %+v", st)
	}
	if st.DeadSlot != -1 {
		t.Fatalf("cancellation flagged as dead path: DeadSlot=%d", st.DeadSlot)
	}
	if st.WriteFailures != 0 {
		t.Fatalf("clean loopback recorded %d write failures", st.WriteFailures)
	}
}

// rejectConn is a connected socket whose every fourth write is refused.
type rejectConn struct {
	nopConn
	writes int
}

func (c *rejectConn) Read([]byte) (int, error) { return 0, net.ErrClosed }
func (c *rejectConn) RemoteAddr() net.Addr     { return &net.UDPAddr{} }
func (c *rejectConn) Write(b []byte) (int, error) {
	c.writes++
	if c.writes%4 == 0 {
		return 0, syscall.ECONNREFUSED
	}
	return len(b), nil
}

// TestSendSlotsCountsWriteFailures: every probe's callback sees the
// pacer's running write-failure count rise, and the last count it sees is
// the one SendSlots returns.
func TestSendSlotsCountsWriteFailures(t *testing.T) {
	cfg := SenderConfig{ExpID: 3, P: 0.5, N: 100, Slot: time.Millisecond, Seed: 3}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	slots := make([]int64, 40)
	for i := range slots {
		slots[i] = int64(i)
	}
	var seen []int
	st, err := SendSlots(context.Background(), &rejectConn{}, cfg, slots, time.Now(), func(i int, running SendStats) {
		seen = append(seen, running.WriteFailures)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(slots) * cfg.PacketsPerProbe / 4; st.WriteFailures != want {
		t.Fatalf("SendSlots counted %d write failures, want %d", st.WriteFailures, want)
	}
	if len(seen) != len(slots) {
		t.Fatalf("callback ran %d times for %d probes", len(seen), len(slots))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("probe %d: running write failures fell from %d to %d", i, seen[i-1], seen[i])
		}
	}
	if seen[0] >= seen[len(seen)-1] {
		t.Errorf("running write failures never rose: %v", seen)
	}
	if last := seen[len(seen)-1]; last != st.WriteFailures {
		t.Errorf("last callback saw %d write failures, SendSlots returned %d", last, st.WriteFailures)
	}
}
