//go:build !race

package probe

import (
	"testing"
	"time"

	"badabing/internal/simnet"
)

// TestProberArrivalAllocs pins the receive path: finding an arriving
// packet's probe and updating it allocates nothing.
func TestProberArrivalAllocs(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	p := NewProber(s, d.Bottleneck, 9, 600)
	for k := int64(0); k < 1000; k++ {
		p.SendProbe(3*k, 3)
	}
	pkt := simnet.Packet{Flow: 9, Kind: simnet.Probe, Seq: 1500*pktsPerKey + 1}
	if allocs := testing.AllocsPerRun(100, func() { p.deliver(pkt) }); allocs != 0 {
		t.Errorf("a probe arrival allocates %v times, want 0", allocs)
	}
	if r := p.probes[500]; r.key != 1500 || r.got != 101 {
		t.Errorf("probe 1500 counted %d arrivals (record key %d), want 101", r.got, r.key)
	}
}

// TestSendProbePerProbeZeroAlloc pins a probe's whole life on a warm
// prober (its record slice already sized): the packet train, every
// packet's crossing of the bottleneck and its arrival allocate nothing.
func TestSendProbePerProbeZeroAlloc(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	p := NewProber(s, d.Bottleneck, 9, 600)
	d.FwdDemux.Register(9, p.Receiver())
	p.probes = make([]record, 0, 1000)
	var key int64
	probe := func() {
		p.SendProbe(key, 3)
		key++
		s.Run(s.Now() + 100*time.Millisecond) // past the 50 ms path delay
	}
	probe()
	if avg := testing.AllocsPerRun(200, probe); avg != 0 {
		t.Errorf("a probe allocates %.2f times, want 0", avg)
	}
	if sent, lost := p.PacketCounts(); sent != 3*int(key) || lost != 0 {
		t.Fatalf("%d probes sent %d packets and lost %d; want %d sent, none lost", key, sent, lost, 3*key)
	}
}
