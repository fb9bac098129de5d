// Package session is the transport-neutral BADABING session engine: one
// probe process, two substrates. It owns everything the paper's tool does
// between "here is a path" and "here are the estimates" — schedule
// generation, probe-slot derivation, per-probe outcome bookkeeping,
// congestion marking, experiment assembly and streaming estimation —
// parameterized by a small Transport interface so the identical engine
// drives both the simulated testbed (simtransport) and real UDP paths
// (wiretransport).
//
// The engine advances in harvest steps: Transport.AdvanceTo moves session
// time forward (running the discrete-event simulator, or sleeping on the
// wall clock), then the probes of newly completed experiments are marked
// against the settled observations, those experiments are fed to the
// streaming estimator and a snapshot is published. Marking is
// retrospective — the baseline delay and loss-time delay estimates refine
// as data arrives — so mid-run snapshots freeze an outcome's congestion
// bits when the outcome is fed; the final snapshot is rebuilt from the
// full observation set and is exactly what the batch pipeline reports.
package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
)

// ErrPathDead reports that a transport decided the far end of the path is
// dead — refused, crashed or blackholed — rather than lossy. BADABING
// treats loss as the measurement signal, so this distinction must be made
// out-of-band (liveness probing, write-failure runs, watchdogs): a session
// that kept measuring a dead path would report the outage as a
// perfectly-measured F≈1 loss episode. Transports wrap this sentinel;
// Run reacts by aborting with a partial, clearly-flagged Result.
var ErrPathDead = errors.New("session: far end dead (infrastructure failure, not path loss)")

// DefaultSettle is how far behind session "now" a probe must be before its
// observation is considered stable enough to harvest. It bounds path delay
// plus the marker's τ look-ahead with a wide margin: 50 ms propagation +
// ≤100 ms queueing on the testbed topology, and comfortably more than any
// sane real-path RTT.
const DefaultSettle = time.Second

// Clock abstracts session time, measured as a Duration since the session
// started. The simulated substrate reads virtual time; the wire substrate
// reads the wall clock relative to its launch instant.
type Clock interface {
	// Now returns the current session time.
	Now() time.Duration
	// AdvanceTo moves session time forward to t: the simulated clock runs
	// its event loop, the wall clock sleeps. It returns early with the
	// context's error on cancellation, or the transport's error if the
	// substrate failed (e.g. the probe sender died).
	AdvanceTo(ctx context.Context, t time.Duration) error
}

// Transport is a measurement substrate: it emits the session's probes at
// their slot deadlines and accumulates per-probe observations.
type Transport interface {
	Clock
	// Launch starts emitting probes for the given slots (ascending,
	// deduplicated, from badabing.ProbeSlots). It must not block for the
	// session's duration: the simulated substrate pre-schedules events,
	// the wire substrate starts a pacing goroutine.
	Launch(ctx context.Context, slots []int64) error
	// Observations returns per-probe outcomes in send order for every
	// probe emitted so far, fully lost probes included, with the §6.1
	// missing-delay rule already applied. invalid flags slots whose
	// probes cannot be trusted (e.g. paced too far behind schedule);
	// experiments touching them are skipped. invalid may be nil.
	Observations() (obs []badabing.ProbeObs, invalid map[int64]bool)
	// Close releases the substrate's resources (sockets, goroutines).
	Close() error
}

// Config parameterizes one measurement session.
type Config struct {
	// P is the per-slot experiment probability.
	P float64
	// Slots is the measurement horizon in slots (the schedule's N).
	Slots int64
	// Slot is the discretization width. Default badabing.DefaultSlot.
	Slot time.Duration
	// Improved selects the improved (triple-probe) design;
	// ExtendedFraction weights it (nil = the paper's 1/2).
	Improved         bool
	ExtendedFraction *float64
	// ExtendedPairs enables the §5.5 pair-counting modification.
	ExtendedPairs bool
	// Seed fixes the schedule RNG.
	Seed int64
	// Marker holds the α/τ congestion-marking parameters. A zero value
	// selects RecommendedMarker(P, Slot).
	Marker badabing.MarkerConfig
	// Estimator selects the streaming estimator the session feeds (the
	// zero value is the improved estimator). Both transports consume the
	// same estimator: the selection is estimation policy, not substrate.
	Estimator estimate.Config
	// WindowSlots is the streaming estimator's sliding-window span; zero
	// disables windowing.
	WindowSlots int64
	// StepSlots is the harvest cadence in slots. Default 1000.
	StepSlots int64
	// StepDelay throttles the session by sleeping this much wall time
	// between harvest steps (useful to pace a simulated session like a
	// live one; a wire session is already paced by its clock).
	StepDelay time.Duration
	// Settle is the stability cutoff for harvesting. Default
	// DefaultSettle.
	Settle time.Duration
}

func (c *Config) applyDefaults() {
	if c.Slot == 0 {
		c.Slot = badabing.DefaultSlot
	}
	if c.StepSlots == 0 {
		c.StepSlots = 1000
	}
	if c.Settle == 0 {
		c.Settle = DefaultSettle
	}
	if c.Marker == (badabing.MarkerConfig{}) {
		c.Marker = badabing.RecommendedMarker(c.P, c.Slot)
	}
}

// validate rejects a step the harvest loop could never finish with: a
// negative one never advances, and a loop clock past int64 nanoseconds
// wraps and never reaches the horizon. The clock runs to less than one
// step past the horizon and its settle time. A non-positive slot or
// horizon is left to the stream and the schedule to reject.
func (c *Config) validate() error {
	if c.StepSlots < 0 {
		return fmt.Errorf("session: negative step of %d slots", c.StepSlots)
	}
	if c.Slot <= 0 || c.Slots < 0 {
		return nil
	}
	most := int64((math.MaxInt64 - max(c.Settle, 0)) / c.Slot)
	if c.Slots > most || c.StepSlots > most-c.Slots {
		return fmt.Errorf("session: horizon of %d slots plus a step of %d slots of %v overflows", c.Slots, c.StepSlots, c.Slot)
	}
	return nil
}

// stream shapes the estimator from the session's probe-process
// parameters.
func (c *Config) stream() badabing.StreamConfig {
	return badabing.StreamConfig{
		Slot:          c.Slot,
		WindowSlots:   c.WindowSlots,
		ExtendedPairs: c.ExtendedPairs,
	}
}

// schedule draws the session's experiment plan.
func (c *Config) schedule() ([]badabing.Plan, error) {
	return badabing.Schedule(badabing.ScheduleConfig{
		P:                c.P,
		N:                c.Slots,
		Improved:         c.Improved,
		ExtendedFraction: c.ExtendedFraction,
		Seed:             c.Seed,
	})
}

// Counters are a session's probe-level tallies so far, the "counters"
// object of the daemon's session JSON. WriteFailures counts probe writes
// the socket rejected, on transports that count them (a burst is the
// signature of a refused far end); simulated paths have none.
type Counters struct {
	ProbesSent    int64 `json:"probes_sent"`
	ProbesLost    int64 `json:"probes_lost"`
	PacketsSent   int64 `json:"packets_sent"`
	PacketsLost   int64 `json:"packets_lost"`
	Experiments   int64 `json:"experiments"`
	Skipped       int64 `json:"skipped"`
	WriteFailures int64 `json:"write_failures,omitempty"`
}

// writeFailureCounter is the optional side of a Transport that counts
// probe writes its socket rejected (the wire transport).
type writeFailureCounter interface{ WriteFailures() int64 }

// Update is one published harvest step: the estimator snapshot, progress
// through the horizon and the tallies backing it.
type Update struct {
	Snapshot  estimate.Snapshot
	SlotsDone int64
	Counters  Counters
}

// Result is a completed session.
type Result struct {
	// Final is the last published update, rebuilt from the full
	// observation set (bit-identical to batch estimation).
	Final Update
	// Plans is the experiment schedule the session ran.
	Plans []badabing.Plan
	// Probes is the number of probe slots the schedule flattened to.
	Probes int
	// Marked is the final per-slot congestion bit map (slots of invalid
	// probes absent), as fed to the estimators.
	Marked map[int64]bool
	// Aborted flags a session cut short because the transport declared
	// the far end dead (ErrPathDead). Final then holds partial estimates
	// covering only the probes answered while the path was alive — the
	// outage itself is excluded, never reported as measured loss.
	Aborted bool
}

// Run drives a full measurement session over the transport: it draws the
// schedule, launches probing, paces the harvest loop, and publishes an
// Update after every step (publish may be nil). It blocks until the
// session completes or ctx is cancelled. The caller owns the transport and
// closes it.
func Run(ctx context.Context, tr Transport, cfg Config, publish func(Update)) (*Result, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	plans, err := cfg.schedule()
	if err != nil {
		return nil, err
	}
	slots := badabing.ProbeSlots(plans)
	est, err := estimate.New(cfg.Estimator, cfg.stream())
	if err != nil {
		return nil, err
	}
	if err := tr.Launch(ctx, slots); err != nil {
		return nil, err
	}

	h := newHarvester(&cfg, plans, len(slots), est, publish)
	res := &Result{Plans: plans, Probes: len(slots)}
	horizon := time.Duration(cfg.Slots) * cfg.Slot
	step := time.Duration(cfg.StepSlots) * cfg.Slot
	for t := step; ; t += step {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := t >= horizon+cfg.Settle
		if end {
			t = horizon + cfg.Settle
		}
		if err := tr.AdvanceTo(ctx, t); err != nil {
			if errors.Is(err, ErrPathDead) {
				// The far end died mid-run: harvest what had settled
				// while the path was alive (the transport truncates its
				// observations at the death point) and surface a
				// partial, flagged result alongside the error.
				h.harvest(tr, tr.Now(), aborted)
				res.Final = h.last
				res.Marked = h.marked
				res.Aborted = true
				return res, err
			}
			return nil, err
		}
		if end {
			h.harvest(tr, t, final)
			res.Final = h.last
			res.Marked = h.marked
			return res, nil
		}
		h.harvest(tr, t, midRun)
		if cfg.StepDelay > 0 {
			timer := time.NewTimer(cfg.StepDelay)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			case <-timer.C:
			}
		}
	}
}

// harvester carries the incremental estimation state across steps.
type harvester struct {
	cfg     *Config
	plans   []badabing.Plan
	est     estimate.Estimator
	publish func(Update)
	fed     int // plans[:fed] have been fed to the stream
	skip    int64
	last    Update
	marked  map[int64]bool // the final pass's marks (Result.Marked)

	// marker and due are a mid-run step's §6.1 references and the marks
	// of the probes it feeds, reused from step to step.
	marker badabing.Marker
	due    map[int64]bool
}

func newHarvester(cfg *Config, plans []badabing.Plan, probes int, est estimate.Estimator, publish func(Update)) *harvester {
	// A mid-run step feeds the experiments whose last probe crossed the
	// feed cutoff since the previous step. They probe at most
	// StepSlots+2 slots, so a map sized for that never grows.
	return &harvester{
		cfg: cfg, plans: plans, est: est, publish: publish,
		due: make(map[int64]bool, min(cfg.StepSlots, int64(probes))+2),
	}
}

// pass is the kind of a harvest step.
type pass int

const (
	midRun  pass = iota // feed the experiments settled since the last step
	final               // the horizon has passed: re-mark and refeed everything
	aborted             // a final pass over a dead path's truncated observations
)

// harvest feeds the experiments that became due. A mid-run step marks
// only their probes, against the §6.1 references of every settled
// observation; the final step re-marks everything and rebuilds the
// stream so the published result matches batch estimation. After an
// abort it feeds only the experiments whose probes all lie at or before
// the last observation the transport kept: the later ones were never
// measured, so they are neither fed nor counted as skipped.
func (h *harvester) harvest(tr Transport, now time.Duration, p pass) {
	end := p != midRun
	obs, invalid := tr.Observations()
	cutoff := now - h.cfg.Settle
	if end {
		cutoff = now
	}
	settled := obs[:sort.Search(len(obs), func(i int) bool { return obs[i].T > cutoff })]

	var c Counters
	for _, o := range settled {
		c.ProbesSent++
		c.PacketsSent += int64(o.SentPackets)
		c.PacketsLost += int64(o.LostPackets)
		if o.LostPackets > 0 {
			c.ProbesLost++
		}
	}

	if end {
		// Final pass: discard the provisional mid-run marks.
		h.est.Reset()
		h.fed = 0
		h.skip = 0
	}
	// Feed experiments whose probes have all settled. An extra marker-τ
	// guard keeps a loss arriving just after the cutoff from changing a
	// mark we already froze.
	feedCutoff := cutoff - h.cfg.Marker.Tau - h.cfg.Slot
	switch {
	case p == aborted && len(settled) == 0:
		feedCutoff = -1
	case p == aborted:
		feedCutoff = settled[len(settled)-1].T
	case end:
		feedCutoff = cutoff
	}
	due := h.fed
	for due < len(h.plans) {
		pl := h.plans[due]
		if time.Duration(pl.Slot+int64(pl.Probes)-1)*h.cfg.Slot > feedCutoff {
			break
		}
		due++
	}
	var marked map[int64]bool
	if end {
		h.marked = MarkSlots(settled, invalid, h.cfg.Marker)
		marked = h.marked
	} else {
		marked = h.markDue(settled, invalid, h.plans[h.fed:due])
	}
	h.skip += int64(badabing.Assemble(h.plans[h.fed:due], marked, h.est.Observe))
	h.fed = due
	c.Experiments = int64(h.est.M())
	c.Skipped = h.skip
	if wf, ok := tr.(writeFailureCounter); ok {
		c.WriteFailures = wf.WriteFailures()
	}

	slotsDone := int64(now / h.cfg.Slot)
	if slotsDone > h.cfg.Slots {
		slotsDone = h.cfg.Slots
	}
	h.last = Update{Snapshot: h.est.Snapshot(), SlotsDone: slotsDone, Counters: c}
	if h.publish != nil {
		h.publish(h.last)
	}
}

// markDue returns the marks MarkSlots(settled, invalid, …) would give the
// probes of plans, computing no others. Settled observations are in send
// order, which for a schedule's ascending probe slots is slot order, so
// each probe is found by binary search.
func (h *harvester) markDue(settled []badabing.ProbeObs, invalid map[int64]bool, plans []badabing.Plan) map[int64]bool {
	clear(h.due)
	if len(plans) == 0 {
		return h.due
	}
	h.marker.Reset(settled, h.cfg.Marker)
	for _, pl := range plans {
		for s := pl.Slot; s < pl.Slot+int64(pl.Probes); s++ {
			if _, done := h.due[s]; done || invalid[s] {
				continue
			}
			i := sort.Search(len(settled), func(i int) bool { return settled[i].Slot >= s })
			if i < len(settled) && settled[i].Slot == s {
				h.due[s] = h.marker.Congested(i)
			}
		}
	}
	return h.due
}

// MarkSlots is the one shared marking pipeline: it classifies each probe
// observation as congested or not (badabing.Mark) and collapses the result
// to a per-slot congestion-bit map, omitting slots flagged invalid so that
// experiments touching them are skipped by assembly. Every estimation path
// — the session engine's final step, the lab's batch replays, the wire
// collector's estimates and the control-channel counts — feeds its marker
// through this function; a mid-run harvest step gives the probes it feeds
// exactly the bits this map would hold.
func MarkSlots(obs []badabing.ProbeObs, invalid map[int64]bool, cfg badabing.MarkerConfig) map[int64]bool {
	marked := badabing.Mark(obs, cfg)
	bySlot := make(map[int64]bool, len(obs))
	for i, o := range obs {
		if invalid[o.Slot] {
			continue
		}
		bySlot[o.Slot] = bySlot[o.Slot] || marked[i]
	}
	return bySlot
}

// String implements a compact one-line rendering of counters for logs.
func (c Counters) String() string {
	return fmt.Sprintf("probes %d (%d lost) packets %d (%d lost) experiments %d (%d skipped)",
		c.ProbesSent, c.ProbesLost, c.PacketsSent, c.PacketsLost, c.Experiments, c.Skipped)
}
