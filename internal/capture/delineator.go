package capture

import (
	"slices"
	"time"

	"badabing/internal/stats"
)

// The loss-episode rule (paper §3, Figure 2). A drop extends the current
// episode when it comes within MaxGap of the episode's last drop, or when
// the queue never fell below HighWater of its capacity since that drop;
// otherwise it starts a new episode.
const (
	// MaxGap is well below the multi-second spacing between episodes in
	// every paper scenario.
	MaxGap = 30 * time.Millisecond
	// HighWater is the paper's Harpoon delineation: queueing delays
	// within 10 ms of the 100 ms maximum.
	HighWater = 0.9
)

// Episode is a loss episode: a maximal period during which the bottleneck
// buffer is dropping packets (paper §3, Figure 2).
type Episode struct {
	Start time.Duration // time of the first drop
	End   time.Duration // time of the last drop
	Drops int           // packets lost during the episode
}

// Duration returns the episode length.
func (e Episode) Duration() time.Duration { return e.End - e.Start }

// Delineator is the one source of ground truth. It turns a bottleneck
// queue's event stream into loss episodes and the true loss
// characteristics the estimates are judged against. Feed it, in time
// order, every arrival with the queue occupancy it found, every departure
// with the occupancy it left, and every drop with its time.
type Delineator struct {
	highWater int // HighWater × capacity, bytes
	queued    int // occupancy the latest arrival found
	low       int // lowest occupancy since the last drop
	episodes  []Episode
	arrivals  uint64
	drops     uint64
}

// NewDelineator returns a Delineator for a queue of capacity bytes.
func NewDelineator(capacity int) *Delineator {
	return &Delineator{highWater: int(HighWater * float64(capacity))}
}

// Arrive records a packet arriving at a queue that holds queued bytes.
func (d *Delineator) Arrive(queued int) {
	d.arrivals++
	d.queued = queued
}

// Depart records a departure that leaves queued bytes behind.
func (d *Delineator) Depart(queued int) {
	d.low = min(d.low, queued)
}

// Drop records that the latest arriving packet was discarded at now. The
// low-water tracker restarts from the occupancy that packet found.
func (d *Delineator) Drop(now time.Duration) {
	d.drops++
	if n := len(d.episodes); n > 0 && (now-d.episodes[n-1].End <= MaxGap || d.low >= d.highWater) {
		d.episodes[n-1].End = now
		d.episodes[n-1].Drops++
	} else {
		d.episodes = append(d.episodes, Episode{Start: now, End: now, Drops: 1})
	}
	d.low = d.queued
}

// Tally returns how many arrivals and drops have been fed.
func (d *Delineator) Tally() (arrivals, drops uint64) { return d.arrivals, d.drops }

// Episodes returns the loss episodes so far, the last one possibly still
// open.
func (d *Delineator) Episodes() []Episode { return slices.Clone(d.episodes) }

// Truth summarizes the ground-truth loss characteristics over an
// observation window, in the form the paper's tables report.
type Truth struct {
	// Frequency is the fraction of time slots of width Slot that
	// intersect a loss episode — the paper's congestion frequency F.
	Frequency float64
	// Duration summarizes episode durations (mean µ and σ appear in
	// the tables).
	Duration stats.Summary
	// Episodes is the number of loss episodes observed.
	Episodes int
	// EpisodeRate is episodes per second.
	EpisodeRate float64
	// LossRate is the router-centric loss rate L/(S+L) over every
	// packet fed, including any after the window.
	LossRate float64
	// Slot is the discretization used for Frequency.
	Slot time.Duration
}

// Truth computes ground truth over the window [0, horizon) at the given
// slot width (the paper discretizes at 5 ms). An episode counts when it
// starts inside the window; its slots are clamped to the window's
// horizon/slot whole slots, and a slot counts once however many episodes
// touch it, so Frequency is the share of slots CongestedSlots marks.
func (d *Delineator) Truth(horizon, slot time.Duration) Truth {
	t := Truth{Slot: slot}
	if d.arrivals > 0 {
		t.LossRate = float64(d.drops) / float64(d.arrivals)
	}
	if horizon <= 0 || slot <= 0 {
		return t
	}
	var marked int64
	d.slots(horizon, slot, func(e Episode, first, last int64) {
		t.Episodes++
		t.Duration.AddDuration(e.Duration())
		marked += last - first + 1
	})
	if n := int64(horizon / slot); n > 0 {
		t.Frequency = float64(marked) / float64(n)
	}
	t.EpisodeRate = float64(t.Episodes) / horizon.Seconds()
	return t
}

// CongestedSlots returns a bitmap over [0,horizon) at the given slot width
// where true marks slots intersecting a loss episode that starts inside
// the window. This is the oracle series Yi of the paper's §5.2.2, used to
// validate estimator consistency.
func (d *Delineator) CongestedSlots(horizon, slot time.Duration) []bool {
	out := make([]bool, int(horizon/slot))
	d.slots(horizon, slot, func(_ Episode, first, last int64) {
		for i := first; i <= last; i++ {
			out[i] = true
		}
	})
	return out
}

// slots is the one slot rule. It calls f for each episode that starts in
// [0, horizon), with the slots [first, last] the episode adds to the
// window's congested set: clamped to the horizon/slot whole slots, and
// past any slot an earlier episode already marked. The range is empty
// (first == last+1) when the episode adds no slot.
func (d *Delineator) slots(horizon, slot time.Duration, f func(e Episode, first, last int64)) {
	n := int64(horizon / slot)
	next := int64(0) // the first slot no earlier episode marked
	for _, e := range d.episodes {
		if e.Start >= horizon {
			return
		}
		first := max(int64(e.Start/slot), next)
		last := max(min(int64(e.End/slot), n-1), first-1)
		f(e, first, last)
		next = last + 1
	}
}
