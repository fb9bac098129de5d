package wire

import (
	"math"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		ExpID:        12345,
		Slot:         99887,
		PktIdx:       2,
		PktsPerProbe: 3,
		Improved:     true,
		P:            0.3,
		N:            180000,
		SlotWidth:    5 * time.Millisecond,
		Seed:         -42,
		Start:        time.Now().UnixNano(),
		SendTime:     time.Now().UnixNano() + 12345,
		Seq:          777,
	}
	buf := make([]byte, HeaderSize)
	n, err := h.Marshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != HeaderSize {
		t.Fatalf("marshal wrote %d, want %d", n, HeaderSize)
	}
	var got Header
	if err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(expID uint64, slot int64, pktIdx, per uint8, seed, start, send int64, seq uint64, pRaw uint32) bool {
		p := (float64(pRaw%1000000) + 1) / 1000001 // (0,1)
		h := Header{
			ExpID: expID, Slot: slot, PktIdx: pktIdx, PktsPerProbe: per,
			P: p, N: 1000, SlotWidth: time.Millisecond,
			Seed: seed, Start: start, SendTime: send, Seq: seq,
		}
		buf := make([]byte, HeaderSize)
		if _, err := h.Marshal(buf); err != nil {
			return false
		}
		var got Header
		if err := got.Unmarshal(buf); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	var h Header
	if err := h.Unmarshal(make([]byte, 4)); err == nil {
		t.Error("short packet accepted")
	}
	buf := make([]byte, HeaderSize)
	if err := h.Unmarshal(buf); err == nil {
		t.Error("zero magic accepted")
	}
	good := Header{P: 0.5, N: 10, SlotWidth: time.Millisecond}
	if _, err := good.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	buf[4] = 99 // corrupt version
	if err := h.Unmarshal(buf); err == nil {
		t.Error("bad version accepted")
	}
}

func TestHeaderMarshalValidation(t *testing.T) {
	var h Header
	for _, p := range []float64{0, -0.5, 1.5, math.NaN()} {
		h.P = p
		if _, err := h.Marshal(make([]byte, HeaderSize)); err == nil {
			t.Errorf("p=%v accepted", p)
		}
	}
	h.P = 0.5
	if _, err := h.Marshal(make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
}

// divergentSeeds pairs each p with a seed whose 60 000-slot improved
// schedule changes when p is rounded to a multiple of 2^-20, as a
// fixed-point wire field would carry it.
var divergentSeeds = []struct {
	p    float64
	seed int64
}{{0.1, 44}, {0.3, 54}, {0.7, 122}, {0.9, 32}}

// TestCollectorRebuildsSenderPlans: the collector redraws exactly the
// sender's schedule from one encoded packet.
func TestCollectorRebuildsSenderPlans(t *testing.T) {
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	for _, c := range divergentSeeds {
		cfg := badabing.ScheduleConfig{P: c.p, N: 60_000, Improved: true, Seed: c.seed}
		want := badabing.MustSchedule(cfg)
		h := Header{ExpID: 1, Slot: want[0].Slot, PktsPerProbe: 3, Improved: true,
			P: c.p, N: cfg.N, SlotWidth: refSlot, Seed: c.seed}
		buf := make([]byte, HeaderSize)
		if _, err := h.Marshal(buf); err != nil {
			t.Fatal(err)
		}
		col := NewCollector(nopConn{})
		col.handlePacket(buf, from)
		plans, _, _, _, err := col.marked(1, badabing.RecommendedMarker(c.p, refSlot))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plans, want) {
			t.Errorf("p %v seed %d: the collector redrew %d plans, the sender drew %d", c.p, c.seed, len(plans), len(want))
		}
	}
}

// TestCollectorCleanSessionThroughCodec: a loss-free session whose every
// probe packet goes through Marshal and Unmarshal on time reports no
// loss, at a p and seed whose schedule a rounded p would change.
func TestCollectorCleanSessionThroughCodec(t *testing.T) {
	const p, n, seed = 0.3, 60_000, 54
	base := Header{ExpID: 1, PktsPerProbe: refPerProbe, Improved: true, P: p, N: n,
		SlotWidth: refSlot, Seed: seed, Start: time.Now().UnixNano()}
	slots := badabing.ProbeSlots(badabing.MustSchedule(badabing.ScheduleConfig{P: p, N: n, Improved: true, Seed: seed}))
	col := NewCollector(nopConn{})
	buf := make([]byte, HeaderSize)
	for _, slot := range slots {
		for k := 0; k < refPerProbe; k++ {
			h := base
			h.Slot, h.PktIdx = slot, uint8(k)
			h.SendTime = base.Start + slot*int64(refSlot) + int64(k)*int64(refPktGap)
			if _, err := h.Marshal(buf); err != nil {
				t.Fatal(err)
			}
			var got Header
			if err := got.Unmarshal(buf); err != nil {
				t.Fatal(err)
			}
			col.record(&got, time.Unix(0, h.SendTime+int64(20*time.Millisecond)))
		}
	}
	snap, stats, err := col.Estimate(1, badabing.RecommendedMarker(p, refSlot), estimate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if f := snap.Total.Frequency; f != 0 || stats.PacketsLost != 0 {
		t.Fatalf("clean session reports F = %v and %d lost packets (%d probes planned, %d sent)",
			f, stats.PacketsLost, stats.ProbesPlanned, len(slots))
	}
}
