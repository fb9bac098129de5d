package wire

import (
	"context"
	"fmt"
	"net"
	"time"

	"badabing/internal/badabing"
)

// AdaptiveConfig parameterizes a live adaptive measurement: rounds of
// probing at an escalating rate, with the collector's control channel
// closing the feedback loop after each round.
type AdaptiveConfig struct {
	// BaseID seeds the per-round session ids (BaseID, BaseID+1, ...).
	BaseID uint64
	// PacketsPerProbe / PacketSize as in SenderConfig.
	PacketsPerProbe int
	PacketSize      int
	// Controller holds the escalation/stopping policy and the slot
	// width, which paces the rounds and converts the estimates alike.
	Controller badabing.AdaptiveConfig
	// DrainWait is how long to wait after a round before querying, so
	// in-flight probes land. Default 250 ms.
	DrainWait time.Duration
	// Seed for round schedules; default derived from the clock.
	Seed int64
}

func (c *AdaptiveConfig) applyDefaults() {
	if c.DrainWait == 0 {
		c.DrainWait = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = nowNano()
	}
}

// AdaptiveResult summarizes a completed adaptive measurement.
type AdaptiveResult struct {
	Estimates badabing.Estimates
	Rounds    int
	FinalP    float64
	Converged bool
	Packets   int
}

// SendAdaptive runs rounds of probing over conn until the controller's
// stopping rule fires or its round budget is exhausted (§8 adaptivity on
// a real path). Each round is its own wire session; after it drains, the
// collector is queried for the round's outcome counts, which feed the
// controller's escalation decision. A controller configuration it
// cannot run is an error before any probe is sent.
func SendAdaptive(ctx context.Context, conn net.Conn, cfg AdaptiveConfig) (AdaptiveResult, error) {
	cfg.applyDefaults()
	var res AdaptiveResult
	ctrl, err := badabing.NewAdaptive(cfg.Controller)
	if err != nil {
		return res, err
	}
	err = ctrl.RunRounds(cfg.Seed, func(round int, _ []badabing.Plan, p float64) (badabing.Counts, error) {
		if err := ctx.Err(); err != nil {
			return badabing.Counts{}, err
		}
		st, err := Send(ctx, conn, SenderConfig{
			ExpID:           cfg.BaseID + uint64(round),
			P:               p,
			N:               ctrl.RoundSlots(),
			Slot:            ctrl.Slot(),
			Improved:        true,
			Seed:            cfg.Seed + int64(round),
			PacketsPerProbe: cfg.PacketsPerProbe,
			PacketSize:      cfg.PacketSize,
		})
		if err != nil {
			return badabing.Counts{}, fmt.Errorf("wire: adaptive round %d: %w", round, err)
		}
		res.Packets += st.Packets

		select {
		case <-ctx.Done():
			return badabing.Counts{}, ctx.Err()
		case <-time.After(cfg.DrainWait):
		}

		counts, err := queryWithRetry(ctx, conn, cfg.BaseID+uint64(round))
		if err != nil {
			return badabing.Counts{}, fmt.Errorf("wire: adaptive round %d: %w", round, err)
		}
		return counts, nil
	})
	if err != nil {
		return res, err
	}
	res.Estimates = ctrl.Estimates()
	res.Rounds = ctrl.Round()
	res.FinalP = ctrl.P()
	res.Converged = ctrl.Converged()
	return res, nil
}

// A round's outcome counts are queried up to queryAttempts times, each
// waiting queryTimeout for the reply: control packets share the lossy
// path with the probes.
const (
	queryTimeout  = time.Second
	queryAttempts = 3
)

// queryWithRetry tolerates control packets lost on the measured path.
func queryWithRetry(ctx context.Context, conn net.Conn, expID uint64) (badabing.Counts, error) {
	var lastErr error
	for attempt := 0; attempt < queryAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return badabing.Counts{}, err
		}
		counts, err := QueryCounts(conn, expID, queryTimeout)
		if err == nil {
			return counts, nil
		}
		lastErr = err
		if err == ErrSessionNotFound {
			// Every probe of the round was lost; report the empty
			// round so the controller escalates.
			return badabing.Counts{}, nil
		}
	}
	return badabing.Counts{}, lastErr
}
