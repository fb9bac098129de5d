package wiretransport

import (
	"testing"
	"time"

	"badabing/internal/badabing"
)

// A dead path's observations keep exactly the probes up to the last one
// answered in full before the death point: the lost probe after it (in
// flight as the far end died) and a partly answered probe at the edge are
// outage, never loss.
func TestAnsweredPrefixCutsAtLastFullReply(t *testing.T) {
	ms := time.Millisecond
	obs := []badabing.ProbeObs{
		{Slot: 1, T: 10 * ms, SentPackets: 3},
		{Slot: 2, T: 20 * ms, SentPackets: 3, LostPackets: 3}, // path loss, answered after
		{Slot: 4, T: 40 * ms, SentPackets: 3},
		{Slot: 5, T: 50 * ms, SentPackets: 3, LostPackets: 2}, // straddles the death
		{Slot: 6, T: 60 * ms, SentPackets: 3, LostPackets: 3}, // in flight
		{Slot: 9, T: 90 * ms, SentPackets: 3, LostPackets: 3}, // detection point
	}
	for _, c := range []struct {
		dead time.Duration
		want int
	}{
		{90 * ms, 3},
		{45 * ms, 3},
		{40 * ms, 1}, // slot 4 is at the death point: only slot 1 survives
		{10 * ms, 0},
	} {
		got := answeredPrefix(obs, c.dead)
		if len(got) != c.want {
			t.Errorf("dead at %v: kept %d probes, want %d", c.dead, len(got), c.want)
		}
		for _, o := range got {
			if o.T >= c.dead {
				t.Errorf("dead at %v: kept probe at %v", c.dead, o.T)
			}
		}
	}
}
