package simnet

import (
	"math/rand"
	"testing"
)

// TestDemuxMatchesMap drives a Demux and a map with the same random
// Register, re-Register, Unregister and Deliver calls and requires every
// packet to reach the receiver the map names, or the fallback, or to be
// counted as an orphan. A third of the flow ids hash to a table's last
// slot at every size up to 64, so probe runs wrap past the end and
// deletions shift entries back across it.
func TestDemuxMatchesMap(t *testing.T) {
	var tail []uint64 // ids whose home is the last slot of tables of 8–64
	for k := uint64(1); len(tail) < 24; k++ {
		if (k*0x9E3779B97F4A7C15)>>58 == 63 {
			tail = append(tail, k)
		}
	}
	var wraps, shifts int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids := append([]uint64(nil), tail...)
		for i := 0; i < 24; i++ {
			ids = append(ids, uint64(i+1), rng.Uint64())
		}
		d := NewDemux()
		ref := map[uint64]int{} // flow → receiver tag
		got := -1
		rx := func(tag int) Receiver { return ReceiverFunc(func(Packet) { got = tag }) }
		if seed%2 == 0 {
			d.SetFallback(rx(-2))
		}
		var orphans uint64
		peak := 0
		for op := 0; op < 3000; op++ {
			flow := ids[rng.Intn(len(ids))]
			// Alternate filling and draining phases, so deletions
			// meet both long and short probe runs.
			reg := 6
			if op/500%2 == 1 {
				reg = 1
			}
			switch r := rng.Intn(10); {
			case r < reg: // Register or re-Register
				d.Register(flow, rx(op))
				ref[flow] = op
			case r < 7:
				before := positions(d)
				d.Unregister(flow)
				_, had := ref[flow]
				delete(ref, flow)
				if had {
					for f, i := range positions(d) {
						if before[f] != i {
							shifts++
							break
						}
					}
				}
			default:
				got = -1
				d.Deliver(Packet{Flow: flow})
				want, ok := ref[flow]
				switch {
				case !ok && seed%2 == 0:
					want = -2
				case !ok:
					want = -1
					orphans++
				}
				if got != want {
					t.Fatalf("seed %d op %d: flow %d reached receiver %d, want %d", seed, op, flow, got, want)
				}
			}
			if d.live != len(ref) {
				t.Fatalf("seed %d op %d: %d live routes, want %d", seed, op, d.live, len(ref))
			}
			peak = max(peak, d.live)
			if n := len(d.slots); n > 0 && (2*d.live > n || n > max(minDemuxSlots, 4*peak)) {
				t.Fatalf("seed %d op %d: %d routes (at most %d) in %d slots", seed, op, d.live, peak, n)
			}
			for f, i := range positions(d) {
				if i < d.home(f) {
					wraps++
				}
			}
		}
		if d.Orphans() != orphans {
			t.Fatalf("seed %d: %d orphans, want %d", seed, d.Orphans(), orphans)
		}
	}
	t.Logf("%d wrapped entries seen, %d backward shifts", wraps, shifts)
	for name, n := range map[string]int{"wrapped entries": wraps, "backward shifts": shifts} {
		if n < 50 {
			t.Errorf("the calls exercised only %d %s", n, name)
		}
	}
}

// positions maps each routed flow to its slot.
func positions(d *Demux) map[uint64]int {
	m := map[uint64]int{}
	for i, rt := range d.slots {
		if rt.r != nil {
			m[rt.flow] = i
		}
	}
	return m
}

// A web workload registers every flow under a fresh id and unregisters it
// when done; the table must stay sized to the most flows alive at once.
func TestDemuxSizeFollowsLiveRoutes(t *testing.T) {
	d := NewDemux()
	rx := ReceiverFunc(func(Packet) {})
	for id := uint64(1); id <= 100_000; id++ {
		d.Register(id, rx)
		if id > 20 {
			d.Unregister(id - 20)
		}
	}
	if len(d.slots) > 64 {
		t.Fatalf("20 live routes after 100 000 flows occupy a %d-slot table", len(d.slots))
	}
}
