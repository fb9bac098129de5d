//go:build !race

package traffic

import (
	"testing"
	"time"

	"badabing/internal/simnet"
)

// TestCBRPerPacketZeroAlloc pins a steady CBR source: each tick builds
// its packet by value and re-arms the timer, and the packet crosses the
// link into the sink, without a heap allocation. Gated from -race, whose
// runtime adds its own allocations.
func TestCBRPerPacketZeroAlloc(t *testing.T) {
	s := simnet.New()
	var delivered int
	l := simnet.NewLink(s, simnet.OC3, time.Millisecond, 1_000_000, simnet.ReceiverFunc(func(simnet.Packet) { delivered++ }))
	c := NewCBR(s, l, 1, simnet.Rate(50_000_000), 1000)
	s.Run(10 * time.Millisecond) // warm up: queue, delay line and heap grow once
	sent := c.Sent()
	if avg := testing.AllocsPerRun(200, func() { s.Run(s.Now() + time.Millisecond) }); avg != 0 {
		t.Errorf("a millisecond of CBR traffic allocates %.2f times, want 0", avg)
	}
	if c.Sent()-sent < 1000 || delivered == 0 {
		t.Fatalf("the measured runs sent %d packets and delivered %d", c.Sent()-sent, delivered)
	}
}
