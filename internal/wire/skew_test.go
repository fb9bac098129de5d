package wire

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
)

// synthObs builds observations over span with base delay, random queueing
// spikes, and a linear drift of ppm parts per million.
func synthObs(rng *rand.Rand, n int, span time.Duration, ppm float64) []badabing.ProbeObs {
	obs := make([]badabing.ProbeObs, n)
	for i := range obs {
		t := time.Duration(float64(span) * float64(i) / float64(n))
		// Large enough base that negative drift never pushes the
		// synthetic OWD below zero over the span (real OWDs carry an
		// arbitrary clock offset anyway).
		base := 150 * time.Millisecond
		queue := time.Duration(0)
		if rng.Float64() < 0.3 {
			queue = time.Duration(rng.Intn(80)) * time.Millisecond
		}
		drift := time.Duration(ppm / 1e6 * float64(t))
		obs[i] = badabing.ProbeObs{
			Slot:        int64(i),
			SentPackets: 3,
			T:           t,
			OWD:         base + queue + drift,
		}
	}
	return obs
}

func TestEstimateSkewRecoversDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ppm := range []float64{0, 50, -80, 200} {
		obs := synthObs(rng, 2000, 15*time.Minute, ppm)
		sk := estimateSkew(obs)
		if !sk.Valid() {
			t.Fatalf("ppm=%v: fit invalid", ppm)
		}
		if math.Abs(sk.PPM-ppm) > 10 {
			t.Errorf("ppm=%v: estimated %.1f", ppm, sk.PPM)
		}
	}
}

func TestCorrectSkewFlattensEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	obs := synthObs(rng, 2000, 15*time.Minute, 100)
	sk := estimateSkew(obs)
	correctSkew(obs, sk)
	// After correction the envelope should be flat: re-estimating skew
	// should give ≈0.
	resk := estimateSkew(obs)
	if math.Abs(resk.PPM) > 10 {
		t.Errorf("residual skew %.1f ppm after correction", resk.PPM)
	}
}

func TestEstimateSkewTooFewSamples(t *testing.T) {
	obs := synthObs(rand.New(rand.NewSource(1)), 5, time.Minute, 100)
	if sk := estimateSkew(obs); sk.Valid() {
		t.Fatal("valid fit from 5 samples")
	}
}

func TestEstimateSkewIgnoresLostProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	obs := synthObs(rng, 1000, 10*time.Minute, 40)
	// Zero out a third of the OWDs (fully lost probes).
	for i := 0; i < len(obs); i += 3 {
		obs[i].OWD = 0
		obs[i].LostPackets = 3
	}
	sk := estimateSkew(obs)
	if !sk.Valid() || math.Abs(sk.PPM-40) > 10 {
		t.Errorf("skew %.1f ppm with lost probes, want ≈40", sk.PPM)
	}
	correctSkew(obs, sk)
	for i := 0; i < len(obs); i += 3 {
		if obs[i].OWD != 0 {
			t.Fatal("correction touched a lost probe's zero OWD")
		}
	}
}

func TestCorrectSkewInvalidNoop(t *testing.T) {
	obs := []badabing.ProbeObs{{OWD: 50 * time.Millisecond, T: time.Hour}}
	correctSkew(obs, Skew{PPM: 1000, Windows: 1}) // invalid fit
	if obs[0].OWD != 50*time.Millisecond {
		t.Fatal("invalid skew applied")
	}
}

func TestCollectorReportsSkew(t *testing.T) {
	col, addr := startCollector(t)
	conn := dial(t, addr)
	st, err := Send(t.Context(), conn, SenderConfig{
		ExpID: 4, P: 0.6, N: 300, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	time.Sleep(200 * time.Millisecond)
	_, ss, err := col.Estimate(4, badabing.MarkerConfig{}, estimate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Same host, same clock: drift must be tiny if the fit is valid.
	if ss.Skew.Valid() && math.Abs(ss.Skew.PPM) > 2000 {
		t.Errorf("implausible loopback skew %.1f ppm", ss.Skew.PPM)
	}
}
