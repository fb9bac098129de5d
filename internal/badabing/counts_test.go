package badabing

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestCountsRoundTrip(t *testing.T) {
	a := &Accumulator{}
	a.AddBasic(false, true)
	a.AddBasic(true, true)
	a.AddExtended(false, true, true)
	a.AddExtended(true, false, true)

	b := &Accumulator{}
	b.Merge(a.Counts())
	if !reflect.DeepEqual(a.Counts(), b.Counts()) {
		t.Fatalf("merge did not reproduce counts:\n%+v\n%+v", a.Counts(), b.Counts())
	}
	if b.Frequency() != a.Frequency() {
		t.Fatal("frequency diverged after merge")
	}
	r1, s1 := a.RS()
	r2, s2 := b.RS()
	if r1 != r2 || s1 != s2 {
		t.Fatal("RS diverged after merge")
	}
	v1, v2 := a.Validate(), b.Validate()
	if v1 != v2 {
		t.Fatalf("validation diverged: %+v vs %+v", v1, v2)
	}
}

func TestCountsMergeEquivalentToStreaming(t *testing.T) {
	// Splitting an outcome stream into chunks and merging their counts
	// must equal accumulating the whole stream.
	rng := rand.New(rand.NewSource(81))
	whole := &Accumulator{}
	merged := &Accumulator{}
	chunk := &Accumulator{}
	for i := 0; i < 5000; i++ {
		bits := make([]bool, 2+rng.Intn(2))
		for j := range bits {
			bits[j] = rng.Intn(4) == 0
		}
		whole.Add(bits)
		chunk.Add(bits)
		if i%500 == 499 {
			merged.Merge(chunk.Counts())
			chunk = &Accumulator{}
		}
	}
	merged.Merge(chunk.Counts())
	if !reflect.DeepEqual(whole.Counts(), merged.Counts()) {
		t.Fatal("chunked merge diverged from streaming")
	}
}

func TestAdaptiveMergeRound(t *testing.T) {
	a := newAdaptive(t, AdaptiveConfig{
		MaxRounds: 3,
		Monitor:   MonitorConfig{MinExperiments: 10},
	})
	// A remote round with rich boundary evidence.
	remote := &Accumulator{}
	for i := 0; i < 20; i++ {
		remote.AddBasic(true, false)
		remote.AddBasic(false, true)
	}
	a.MergeRound(remote.Counts())
	if !a.Converged() {
		t.Fatalf("did not converge on merged evidence: %+v", a.Estimates().Validation)
	}
	if got := a.Estimates().M; got != 40 {
		t.Fatalf("merged M = %d, want 40", got)
	}
}
