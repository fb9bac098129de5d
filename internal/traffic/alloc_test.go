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
	sent := c.sent
	if avg := testing.AllocsPerRun(200, func() { s.Run(s.Now() + time.Millisecond) }); avg != 0 {
		t.Errorf("a millisecond of CBR traffic allocates %.2f times, want 0", avg)
	}
	if c.sent-sent < 1000 || delivered == 0 {
		t.Fatalf("the measured runs sent %d packets and delivered %d", c.sent-sent, delivered)
	}
}

// TestEpisodeBurstZeroAlloc pins the episode injector once its link's
// queue has filled: a burst's timer, its packet train and the base CBR
// load beside it allocate nothing.
func TestEpisodeBurstZeroAlloc(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	inj := NewEpisodeInjector(s, d, NewIDSpace(0), EpisodeInjectorConfig{MeanSpacing: 2 * time.Second})
	burst := func() {
		for n := inj.episodes; inj.episodes == n; {
			s.Run(s.Now() + 100*time.Millisecond)
		}
		s.Run(s.Now() + time.Second) // the burst's train and queue drain
	}
	burst() // warm up: the queue, delay line and heap grow once
	_, drops, _ := d.Bottleneck.Stats()
	if avg := testing.AllocsPerRun(10, burst); avg != 0 {
		t.Errorf("an episode burst allocates %.2f times, want 0", avg)
	}
	if _, drops2, _ := d.Bottleneck.Stats(); inj.episodes != 12 || drops2 == drops {
		t.Fatalf("%d bursts dropped %d packets", inj.episodes, drops2-drops)
	}
}

// TestWebSteadyZeroAlloc pins the web workload once its session pool is
// warm: a window in which many transfers start and complete, each on a
// pooled session's restarted flow, allocates nothing. Surges are pushed
// beyond the run; the simulation is deterministic, so the pool reached
// in the warm-up covers the window.
func TestWebSteadyZeroAlloc(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	w := NewWeb(s, d, NewIDSpace(0), WebConfig{Seed: 3, SurgeSpacing: 1000 * time.Hour})
	s.Run(120 * time.Second)
	done, pooled := w.transfers, len(w.pool)
	if avg := testing.AllocsPerRun(20, func() { s.Run(s.Now() + time.Second) }); avg != 0 {
		t.Errorf("a second of web traffic allocates %.2f times, want 0", avg)
	}
	if n := w.transfers - done; n < 1000 {
		t.Fatalf("the measured window completed only %d transfers", n)
	}
	if pooled == 0 {
		t.Fatal("no session was pooled in the warm-up")
	}
}
