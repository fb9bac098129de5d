//go:build !race

package tcp

import (
	"testing"
	"time"

	"badabing/internal/simnet"
)

// TestInfiniteTCPPerPacketZeroAlloc pins an infinite flow's steady state
// on a dumbbell: data segments (most of them deferred by send jitter
// through Link.SendAt), their ACKs on the reverse link and the timer
// re-arms allocate nothing. Gated from -race, whose runtime adds its own
// allocations.
func TestInfiniteTCPPerPacketZeroAlloc(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{SendJitter: 200 * time.Microsecond})
	s.Run(5 * time.Second) // past slow start, at the receive window
	sent := f.sent
	_, _, data := d.Bottleneck.Stats()
	_, _, acks := d.Reverse.Stats()
	if avg := testing.AllocsPerRun(50, func() { s.Run(s.Now() + 10*time.Millisecond) }); avg != 0 {
		t.Errorf("10 ms of an infinite TCP flow allocates %.2f times, want 0", avg)
	}
	sent2, retrans := f.sent, f.retrans
	_, _, data2 := d.Bottleneck.Stats()
	_, _, acks2 := d.Reverse.Stats()
	if sent2-sent < 1000 || data2-data < 1000 || acks2-acks < 1000 {
		t.Fatalf("the measured runs sent %d segments, carried %d data packets and %d ACKs", sent2-sent, data2-data, acks2-acks)
	}
	if retrans != 0 {
		t.Fatalf("%d retransmissions: the flow is not in a loss-free steady state", retrans)
	}
}
