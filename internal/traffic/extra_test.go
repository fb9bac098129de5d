package traffic

import (
	"testing"
	"time"

	"badabing/internal/capture"
	"badabing/internal/simnet"
)

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
