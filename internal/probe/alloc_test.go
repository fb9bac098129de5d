//go:build !race

package probe

import (
	"testing"

	"badabing/internal/simnet"
)

// TestProberArrivalAllocs pins the receive path: finding an arriving
// packet's probe and updating it allocates nothing.
func TestProberArrivalAllocs(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	p := NewProber(s, d.Bottleneck, 9, 600, 0)
	for k := int64(0); k < 1000; k++ {
		p.SendProbe(3*k, 3)
	}
	pkt := &simnet.Packet{Flow: 9, Kind: simnet.Probe, Seq: 1500*pktsPerKey + 1}
	if allocs := testing.AllocsPerRun(100, func() { p.deliver(pkt) }); allocs != 0 {
		t.Errorf("a probe arrival allocates %v times, want 0", allocs)
	}
	if r := p.probes[500]; r.key != 1500 || r.got != 101 {
		t.Errorf("probe 1500 counted %d arrivals (record key %d), want 101", r.got, r.key)
	}
}
