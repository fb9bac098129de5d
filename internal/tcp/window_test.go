package tcp

import (
	"math/rand"
	"testing"
	"time"

	"badabing/internal/simnet"
)

// mapReceiver is the receiver's cumulative-ACK logic as it was when the
// out-of-order set was a map: the reference for the bitset window.
type mapReceiver struct {
	rcvNxt int64
	ooo    map[int64]bool
}

func (r *mapReceiver) onData(seq int64) int64 {
	switch {
	case seq == r.rcvNxt:
		r.rcvNxt++
		for r.ooo[r.rcvNxt] {
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt++
		}
	case seq > r.rcvNxt:
		r.ooo[seq] = true
	}
	return r.rcvNxt
}

// ackTap records the ACK number of every packet sent into a link.
type ackTap struct{ acks *[]int64 }

func (t ackTap) Arrive(_ time.Duration, p *simnet.Packet, _ int)  { *t.acks = append(*t.acks, p.Seq) }
func (ackTap) Dropped(time.Duration, *simnet.Packet, simnet.Drop) {}
func (ackTap) Depart(time.Duration, *simnet.Packet, int)          {}

// TestOutOfOrderMatchesMap feeds a receiver random in-window arrivals,
// duplicates of segments it holds out of order, and retransmissions below
// rcvNxt, and requires each ACK number, and the out-of-order count that
// decides whether an ACK may be delayed, to equal the map-based
// receiver's. Windows that are not a power of two use only part of their
// bitset.
func TestOutOfOrderMatchesMap(t *testing.T) {
	var holes, dups, old int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wnd := []int{8, 64, 100, 256}[seed%4]
		s := simnet.New()
		d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
		var acks []int64
		d.Reverse.AddTap(ackTap{&acks})
		f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{RcvWnd: wnd})
		ref := &mapReceiver{ooo: map[int64]bool{}}
		for i := 0; i < 4000; i++ {
			var seq int64
			switch r := rng.Intn(10); {
			case r < 3:
				seq = ref.rcvNxt // fills the first hole
			case r < 7:
				seq = ref.rcvNxt + 1 + rng.Int63n(int64(wnd-1))
				holes++
			case r < 9 && len(ref.ooo) > 0:
				var held []int64
				for k := ref.rcvNxt + 1; k < ref.rcvNxt+int64(wnd); k++ {
					if ref.ooo[k] {
						held = append(held, k)
					}
				}
				seq = held[rng.Intn(len(held))]
				dups++
			default:
				if ref.rcvNxt == 0 {
					continue
				}
				seq = rng.Int63n(ref.rcvNxt)
				old++
			}
			want := ref.onData(seq)
			f.onData(simnet.Packet{Flow: 1, Kind: simnet.Data, Seq: seq})
			if got := acks[len(acks)-1]; got != want {
				t.Fatalf("seed %d (window %d), arrival %d of segment %d: ACK %d, map receiver ACKs %d", seed, wnd, i, seq, got, want)
			}
			if f.ooo.n != len(ref.ooo) {
				t.Fatalf("seed %d (window %d), arrival %d: %d segments held out of order, map receiver holds %d", seed, wnd, i, f.ooo.n, len(ref.ooo))
			}
		}
		if ref.rcvNxt < 1000 {
			t.Fatalf("seed %d: the receiver advanced only to %d", seed, ref.rcvNxt)
		}
	}
	for name, n := range map[string]int{"out-of-order arrivals": holes, "duplicates": dups, "retransmissions": old} {
		if n < 1000 {
			t.Errorf("the arrivals exercised only %d %s", n, name)
		}
	}
}

func TestSegmentBeyondWindowPanics(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{RcvWnd: 16})
	f.onData(simnet.Packet{Flow: 1, Seq: 15}) // the window's last segment
	defer func() {
		if recover() == nil {
			t.Fatal("a segment beyond the receive window did not panic")
		}
	}()
	f.onData(simnet.Packet{Flow: 1, Seq: 16})
}
