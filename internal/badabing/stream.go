package badabing

import (
	"fmt"
	"time"
)

// Stream is the incremental form of the estimation pipeline: outcomes are
// observed one experiment at a time (tagged with their start slot) and the
// estimators can be snapshotted at any point mid-run, instead of only
// after a run completes. It maintains two views:
//
//   - a running total, identical to feeding every outcome through one
//     Accumulator (the batch estimator);
//   - a sliding window of the most recent WindowSlots slots, held as a
//     ring of per-bucket Accumulators so that Observe is O(1) and
//     Snapshot is O(buckets).
//
// The window trades a little resolution for constant memory: the window
// advances in bucket-sized steps (WindowSlots/Buckets slots), so a
// snapshot's window spans between WindowSlots and WindowSlots +
// bucketSlots slots of history.
//
// Stream is not safe for concurrent use; callers serialize access (the
// fleet session loop owns its stream).
type Stream struct {
	cfg         StreamConfig
	bucketSlots int64
	total       Accumulator
	buckets     []streamBucket
	maxEpoch    int64 // highest bucket epoch observed; -1 before any
	lastSlot    int64
}

type streamBucket struct {
	epoch int64 // slot / bucketSlots; -1 when empty
	acc   Accumulator
}

// StreamConfig parameterizes a Stream.
type StreamConfig struct {
	// Slot is the discretization width, for converting duration
	// estimates to seconds. Default DefaultSlot.
	Slot time.Duration
	// WindowSlots is the sliding-window span in slots. Zero disables
	// windowing: Snapshot's Window view mirrors the Total view.
	WindowSlots int64
	// Buckets is the ring granularity; the window advances in steps of
	// WindowSlots/Buckets slots. Default 16.
	Buckets int
	// ExtendedPairs enables the §5.5 modification on both views.
	ExtendedPairs bool
}

// NewStream validates the configuration and returns an empty stream.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if cfg.Slot == 0 {
		cfg.Slot = DefaultSlot
	}
	if cfg.Slot < 0 {
		return nil, fmt.Errorf("badabing: negative slot width %v", cfg.Slot)
	}
	if cfg.WindowSlots < 0 {
		return nil, fmt.Errorf("badabing: negative window %d slots", cfg.WindowSlots)
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 16
	}
	if cfg.Buckets < 0 {
		return nil, fmt.Errorf("badabing: negative bucket count %d", cfg.Buckets)
	}
	s := &Stream{cfg: cfg, maxEpoch: -1, lastSlot: -1}
	s.total.Slot = cfg.Slot
	s.total.ExtendedPairs = cfg.ExtendedPairs
	if cfg.WindowSlots > 0 {
		s.bucketSlots = (cfg.WindowSlots + int64(cfg.Buckets) - 1) / int64(cfg.Buckets)
		s.buckets = make([]streamBucket, cfg.Buckets)
		for i := range s.buckets {
			s.buckets[i].epoch = -1
			s.buckets[i].acc.Slot = cfg.Slot
			s.buckets[i].acc.ExtendedPairs = cfg.ExtendedPairs
		}
	}
	return s, nil
}

// Observe records one experiment outcome that started at the given slot.
// Outcomes may arrive slightly out of order; ones older than the window
// still count toward the total but are dropped from the window view.
func (s *Stream) Observe(slot int64, bits []bool) {
	s.total.Add(bits)
	if slot > s.lastSlot {
		s.lastSlot = slot
	}
	if s.bucketSlots == 0 {
		return
	}
	epoch := slot / s.bucketSlots
	if epoch > s.maxEpoch {
		s.maxEpoch = epoch
	} else if epoch <= s.maxEpoch-int64(len(s.buckets)) {
		return // older than the ring's span
	}
	b := &s.buckets[epoch%int64(len(s.buckets))]
	if b.epoch != epoch {
		b.acc = Accumulator{Slot: s.cfg.Slot, ExtendedPairs: s.cfg.ExtendedPairs}
		b.epoch = epoch
	}
	b.acc.Add(bits)
}

// M returns the total number of experiments observed.
func (s *Stream) M() int { return s.total.M() }

// Estimates is the one BADABING result: a JSON-friendly snapshot of one
// Accumulator's estimators — F̂ (loss-episode frequency), D̂ (mean episode
// duration, seconds, basic and improved variants), r̂ (the p2/p1
// detection-probability ratio) — and the §5.4 validation of the outcomes
// they come from. Undefined estimates are flagged by their Has fields
// rather than NaN so the struct survives encoding/json.
type Estimates struct {
	// M is the number of experiments the estimates are computed from.
	M int `json:"m"`
	// Frequency is F̂.
	Frequency float64 `json:"frequency"`
	// Duration is the best available duration estimate in seconds
	// (improved when defined, basic otherwise).
	Duration    float64 `json:"duration_seconds"`
	HasDuration bool    `json:"has_duration"`
	// DurationBasic and DurationImproved expose both estimators when
	// their Has flags are set.
	DurationBasic       float64 `json:"duration_basic_seconds"`
	HasDurationBasic    bool    `json:"has_duration_basic"`
	DurationImproved    float64 `json:"duration_improved_seconds"`
	HasDurationImproved bool    `json:"has_duration_improved"`
	// DurationGeometric is the parametric §8 estimate 1/(1−ĝ) under the
	// geometric episode model, when extended experiments observed an
	// episode interior.
	DurationGeometric    float64 `json:"duration_geometric_seconds"`
	HasDurationGeometric bool    `json:"has_duration_geometric"`
	// RHat is r̂ = U/V from extended experiments.
	RHat    float64 `json:"r_hat"`
	HasRHat bool    `json:"has_r_hat"`
	// StdDev is the §7 reliability approximation for the duration
	// estimate, in seconds.
	StdDev    float64 `json:"stddev_seconds"`
	HasStdDev bool    `json:"has_stddev"`
	// Validation is the §5.4 self-calibration check over the same
	// outcomes: whether these estimates deserve belief.
	Validation Validation `json:"validation"`
}

// EstimatesOf summarizes an accumulator. Every numeric field is produced
// by the same Accumulator methods the batch pipeline uses, so a stream
// whose window covers a whole run is bit-identical to batch estimation.
func EstimatesOf(a *Accumulator) Estimates {
	e := Estimates{M: a.M(), Frequency: a.Frequency(), Validation: a.Validate()}
	if d, ok := a.Duration(); ok {
		e.DurationBasic = d.Seconds()
		e.HasDurationBasic = true
		e.Duration = e.DurationBasic
		e.HasDuration = true
	}
	if d, ok := a.DurationImproved(); ok {
		e.DurationImproved = d.Seconds()
		e.HasDurationImproved = true
		e.Duration = e.DurationImproved
		e.HasDuration = true
	}
	if d, ok := a.DurationSlotsGeometric(); ok {
		e.DurationGeometric = d * a.slotWidth().Seconds()
		e.HasDurationGeometric = true
	}
	if r, ok := a.RHat(); ok {
		e.RHat = r
		e.HasRHat = true
	}
	if sd, ok := a.DurationStdDev(); ok {
		e.StdDev = sd * a.slotWidth().Seconds()
		e.HasStdDev = true
	}
	return e
}

// StreamSnapshot is the state of the estimators at one instant mid-run.
type StreamSnapshot struct {
	// Total covers every outcome observed since the stream was created.
	Total Estimates `json:"total"`
	// Window covers roughly the last WindowSlots slots (it mirrors
	// Total when windowing is disabled).
	Window Estimates `json:"window"`
	// WindowSlots echoes the configured span; LastSlot is the highest
	// experiment start slot observed (-1 before any).
	WindowSlots int64 `json:"window_slots"`
	LastSlot    int64 `json:"last_slot"`
}

// Snapshot computes the current estimates. It may be called at any time,
// including on an empty stream.
func (s *Stream) Snapshot() StreamSnapshot {
	snap := StreamSnapshot{
		Total:       EstimatesOf(&s.total),
		WindowSlots: s.cfg.WindowSlots,
		LastSlot:    s.lastSlot,
	}
	if s.bucketSlots == 0 {
		snap.Window = snap.Total
		return snap
	}
	win := Accumulator{Slot: s.cfg.Slot, ExtendedPairs: s.cfg.ExtendedPairs}
	oldest := s.maxEpoch - int64(len(s.buckets)) + 1
	for i := range s.buckets {
		b := &s.buckets[i]
		if b.epoch < 0 || b.epoch < oldest {
			continue
		}
		win.Merge(b.acc.Counts())
	}
	snap.Window = EstimatesOf(&win)
	return snap
}
