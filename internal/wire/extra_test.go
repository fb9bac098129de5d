package wire

import (
	"context"
	"net"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
)

func TestCollectorClampsDuplicates(t *testing.T) {
	col := NewCollector(nopConn{})
	h := Header{
		ExpID: 1, Slot: 5, PktIdx: 0, PktsPerProbe: 1,
		P: 0.5, N: 10, SlotWidth: badabing.DefaultSlot, Seed: 3,
		Start: 0, SendTime: 100,
	}
	now := time.Now()
	// The same packet delivered three times (duplication in the
	// network) must not produce negative loss.
	col.record(&h, now)
	col.record(&h, now)
	col.record(&h, now)
	_, ss, err := col.Estimate(1, badabing.MarkerConfig{}, estimate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.PacketsLost < 0 {
		t.Fatalf("negative loss: %d", ss.PacketsLost)
	}
}

// nopConn satisfies net.PacketConn for collectors fed directly via record.
type nopConn struct{}

func (nopConn) ReadFrom([]byte) (int, net.Addr, error) { return 0, nil, net.ErrClosed }
func (nopConn) WriteTo([]byte, net.Addr) (int, error)  { return 0, net.ErrClosed }
func (nopConn) Close() error                           { return nil }
func (nopConn) LocalAddr() net.Addr                    { return &net.UDPAddr{} }
func (nopConn) SetDeadline(time.Time) error            { return nil }
func (nopConn) SetReadDeadline(time.Time) error        { return nil }
func (nopConn) SetWriteDeadline(time.Time) error       { return nil }

func TestCollectorFullyLostProbesCongested(t *testing.T) {
	// Feed only one probe of a two-slot session directly; the missing
	// probe must be reconstructed from the schedule and counted as
	// fully lost → congested.
	col := NewCollector(nopConn{})
	// Find a seed whose schedule has at least 2 experiments for N=100.
	params := Header{
		ExpID: 9, PktsPerProbe: 2, P: 0.5, N: 100,
		SlotWidth: badabing.DefaultSlot, Seed: 17, Start: 0,
	}
	plans := badabing.MustSchedule(badabing.ScheduleConfig{P: 0.5, N: 100, Seed: 17})
	if len(plans) < 2 {
		t.Fatal("test schedule too small")
	}
	// Deliver both packets of the first experiment's probes only.
	now := time.Now()
	for j := 0; j < 2; j++ {
		for k := 0; k < 2; k++ {
			h := params
			h.Slot = plans[0].Slot + int64(j)
			h.PktIdx = uint8(k)
			h.SendTime = now.UnixNano()
			col.record(&h, now)
		}
	}
	snap, ss, err := col.Estimate(9, badabing.MarkerConfig{}, estimate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.ProbesPlanned <= ss.ProbesSeen {
		t.Fatalf("planned %d probes, saw %d — reconstruction failed",
			ss.ProbesPlanned, ss.ProbesSeen)
	}
	// All unseen probes are fully lost → frequency close to 1 over
	// the remaining experiments.
	if snap.Total.Frequency == 0 {
		t.Fatal("fully lost probes not marked congested")
	}
}

func TestCollectorIgnoresZingPackets(t *testing.T) {
	col, addr := startCollector(t)
	conn := dial(t, addr)
	zh := ZingHeader{ExpID: 5, Seq: 1, SendTime: time.Now().UnixNano()}
	buf := make([]byte, 256)
	if _, err := zh.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	conn.Write(buf)
	time.Sleep(100 * time.Millisecond)
	if got := col.Sessions(); len(got) != 0 {
		t.Fatalf("BADABING collector accepted ZING packets: %v", got)
	}
}

func TestZingHeaderIgnoredByBadabingAndViceVersa(t *testing.T) {
	var bh Header
	zbuf := make([]byte, 256)
	zh := ZingHeader{ExpID: 1, Seq: 2, SendTime: 3}
	zh.Marshal(zbuf)
	if err := bh.Unmarshal(zbuf); err == nil {
		t.Error("BADABING header decoded a ZING packet")
	}
	bbuf := make([]byte, 600)
	good := Header{P: 0.5, N: 10, SlotWidth: time.Millisecond}
	good.Marshal(bbuf)
	var zh2 ZingHeader
	if err := zh2.Unmarshal(bbuf); err == nil {
		t.Error("ZING header decoded a BADABING packet")
	}
}

func TestSendDedupsOverlappingExperiments(t *testing.T) {
	// With p close to 1 nearly every slot starts an experiment, so the
	// probes-per-experiment ratio must approach 1, not 2.
	_, addr := startCollector(t)
	conn := dial(t, addr)
	st, err := Send(context.Background(), conn, SenderConfig{
		ExpID: 3, P: 0.99, N: 100, Slot: time.Millisecond, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Probes > st.Experiments+5 {
		t.Fatalf("%d probes for %d experiments — overlapping slots not shared",
			st.Probes, st.Experiments)
	}
}

func TestCollectorCloseIdempotent(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(conn)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close errored: %v", err)
	}
}

// TestCollectorRejectsOversizedSchedule: one header claiming 2^62 slots
// must not buy a schedule draw; Estimate refuses it at once.
func TestCollectorRejectsOversizedSchedule(t *testing.T) {
	col := NewCollector(nopConn{})
	h := Header{ExpID: 3, Slot: 1, PktsPerProbe: 3, P: 0.5, N: 1 << 62,
		SlotWidth: badabing.DefaultSlot, Seed: 1, SendTime: 100}
	col.record(&h, time.Now())
	if _, _, err := col.Estimate(3, badabing.MarkerConfig{}, estimate.Config{}); err == nil {
		t.Fatal("Estimate accepted a 2^62-slot schedule")
	}
}

// TestCollectorDropsOutOfRangeSlots: a packet whose slot lies outside
// [0, N) of its session's schedule names no probe and leaves no record.
func TestCollectorDropsOutOfRangeSlots(t *testing.T) {
	col := NewCollector(nopConn{})
	h := Header{ExpID: 4, PktsPerProbe: 1, P: 0.5, N: 10,
		SlotWidth: badabing.DefaultSlot, Seed: 1, SendTime: 100}
	now := time.Now()
	for _, slot := range []int64{-1, 10, 1 << 40} {
		h.Slot = slot
		col.record(&h, now)
	}
	if got := col.Sessions(); len(got) != 0 {
		t.Fatalf("out-of-range slots created sessions %v", got)
	}
	h.Slot = 9
	col.record(&h, now)
	wider := h // a later header cannot widen the session's schedule
	wider.N, wider.Slot = 100, 50
	col.record(&wider, now)
	_, ss, err := col.Estimate(4, badabing.MarkerConfig{}, estimate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Packets != 1 || ss.ProbesSeen != 1 || col.Received(4, 50) != 0 {
		t.Fatalf("recorded %d packets in %d probes (%d at slot 50), want the one in range",
			ss.Packets, ss.ProbesSeen, col.Received(4, 50))
	}
}

func TestCollectorExpire(t *testing.T) {
	col := NewCollector(nopConn{})
	h := Header{ExpID: 1, PktsPerProbe: 1, P: 0.5, N: 10,
		SlotWidth: badabing.DefaultSlot, Seed: 1}
	col.record(&h, time.Now().Add(-time.Hour))
	h2 := h
	h2.ExpID = 2
	col.record(&h2, time.Now())
	if removed := col.Expire(10 * time.Minute); removed != 1 {
		t.Fatalf("expired %d sessions, want 1", removed)
	}
	if got := col.Sessions(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("sessions after expiry: %v", got)
	}
}
