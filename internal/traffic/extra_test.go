package traffic

import (
	"testing"
	"time"

	"badabing/internal/capture"
	"badabing/internal/simnet"
)

func TestCBRStop(t *testing.T) {
	s := simnet.New()
	l := simnet.NewLink(s, simnet.GigE, 0, 1_000_000, simnet.ReceiverFunc(func(simnet.Packet) {}))
	c := NewCBR(s, l, 1, simnet.Rate(12_000_000), 1500)
	s.Run(100 * time.Millisecond)
	c.Stop()
	atStop := c.Sent()
	s.Run(time.Second)
	if c.Sent() > atStop+1 {
		t.Fatalf("CBR kept sending after Stop: %d → %d", atStop, c.Sent())
	}
}

func TestEpisodeInjectorStop(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	ids := NewIDSpace(1000)
	inj := NewEpisodeInjector(s, d, ids, EpisodeInjectorConfig{MeanSpacing: 3 * time.Second})
	s.Run(10 * time.Second)
	inj.Stop()
	n := inj.Episodes()
	s.Run(40 * time.Second)
	if inj.Episodes() != n {
		t.Fatalf("injector kept bursting after Stop: %d → %d", n, inj.Episodes())
	}
	if _, _, delivered := d.Bottleneck.Stats(); delivered == 0 {
		t.Fatal("no traffic delivered")
	}
}

func TestEpisodeInjectorMinSpacing(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	ids := NewIDSpace(1000)
	mon := capture.Attach(s, d.Bottleneck, capture.Config{})
	// Absurdly small requested spacing: the injector must enforce its
	// 2-second floor so episodes never merge.
	NewEpisodeInjector(s, d, ids, EpisodeInjectorConfig{
		MeanSpacing:     100 * time.Millisecond,
		Overload:        4,
		BaseUtilization: 0.25,
		Seed:            6,
	})
	s.Run(60 * time.Second)
	eps := mon.Episodes()
	if len(eps) < 2 {
		t.Fatalf("only %d episodes", len(eps))
	}
	for i := 1; i < len(eps); i++ {
		if gap := eps[i].Start - eps[i-1].End; gap < time.Second {
			t.Fatalf("episodes %d,%d only %v apart", i-1, i, gap)
		}
	}
}

func TestWebStop(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	ids := NewIDSpace(1000)
	w := NewWeb(s, d, ids, WebConfig{Seed: 9})
	s.Run(10 * time.Second)
	w.Stop()
	n := w.Sessions()
	s.Run(40 * time.Second)
	if w.Sessions() != n {
		t.Fatalf("web workload kept spawning sessions after Stop: %d → %d", n, w.Sessions())
	}
	if w.Active() != 0 {
		t.Fatalf("%d transfers still active long after Stop", w.Active())
	}
}

func TestWebConfigDefaults(t *testing.T) {
	var c WebConfig
	c.applyDefaults()
	if c.SessionRate != 30 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.SurgeSpacing != 20*time.Second {
		t.Fatalf("surge spacing default %v, want 20s (paper: loss ≈ every 20s)", c.SurgeSpacing)
	}
}

func TestEpisodeInjectorDefaults(t *testing.T) {
	var c EpisodeInjectorConfig
	c.applyDefaults()
	if len(c.Durations) != 1 || c.Durations[0] != 68*time.Millisecond {
		t.Fatalf("default durations %v, want [68ms]", c.Durations)
	}
	if c.MeanSpacing != 10*time.Second {
		t.Fatalf("default spacing %v, want 10s", c.MeanSpacing)
	}
}

func TestInfiniteTCPFlowCount(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	ids := NewIDSpace(0)
	w := NewInfiniteTCP(s, d, ids, 7)
	s.Run(5 * time.Second) // flows start staggered over the first 2 s
	if len(w.Flows) != 7 {
		t.Fatalf("started %d flows, want 7", len(w.Flows))
	}
	var total int64
	for _, f := range w.Flows {
		total += f.AckedSegments()
	}
	if total == 0 {
		t.Fatal("no progress on any flow")
	}
}
