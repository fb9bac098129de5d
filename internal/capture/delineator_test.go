package capture

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestTruthSlotRuleProperty feeds random episode sets, some starting
// before, across and after the horizon, and checks the one slot rule at
// slot widths from 1 ms to 10 s: Truth counts exactly the episodes that
// start before the horizon, its Frequency is the share of slots
// CongestedSlots marks, and a slot is marked exactly when a counted
// episode touches it.
func TestTruthSlotRuleProperty(t *testing.T) {
	const capacity = 10_000
	rng := rand.New(rand.NewSource(1))
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for trial := 0; trial < 2000; trial++ {
		horizon := ms(1 + rng.Intn(60_000))
		slot := ms(1 + rng.Intn(10_000))
		if trial%2 == 0 {
			slot = ms(1 + rng.Intn(20)) // the paper's range, many slots
		}
		// Episodes separated by more than MaxGap over a drained queue,
		// spread to 1.5 × the horizon.
		var want []Episode
		d := NewDelineator(capacity)
		at := ms(rng.Intn(500))
		for at < horizon*3/2 {
			e := Episode{Start: at, End: at + ms(rng.Intn(300)), Drops: 2}
			d.Depart(0)
			d.Arrive(capacity)
			d.Drop(e.Start)
			d.Arrive(capacity)
			d.Drop(e.End)
			want = append(want, e)
			at = e.End + MaxGap + ms(1+rng.Intn(2_000))
		}
		if got := d.Episodes(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: episodes %v, want %v", trial, got, want)
		}

		tr := d.Truth(horizon, slot)
		bits := d.CongestedSlots(horizon, slot)
		n := int(horizon / slot)
		if len(bits) != n {
			t.Fatalf("trial %d: %d slots, want %d", trial, len(bits), n)
		}
		counted, marks := 0, 0
		touched := make([]bool, n)
		for _, e := range want {
			if e.Start >= horizon {
				continue
			}
			counted++
			for i := int(e.Start / slot); i <= int(e.End/slot) && i < n; i++ {
				touched[i] = true
			}
		}
		for i, b := range bits {
			if b != touched[i] {
				t.Fatalf("trial %d (horizon %v, slot %v): slot %d marked %v, want %v", trial, horizon, slot, i, b, touched[i])
			}
			if b {
				marks++
			}
		}
		if tr.Episodes != counted {
			t.Fatalf("trial %d (horizon %v): %d episodes, want the %d that start before the horizon", trial, horizon, tr.Episodes, counted)
		}
		wantF := 0.0
		if n > 0 {
			wantF = float64(marks) / float64(n)
		}
		if tr.Frequency != wantF || tr.Frequency < 0 || tr.Frequency > 1 {
			t.Fatalf("trial %d (horizon %v, slot %v): F %v, want %d marks / %d slots", trial, horizon, slot, tr.Frequency, marks, n)
		}
	}
}
