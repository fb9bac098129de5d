package fleet

import (
	"context"
	"fmt"
	"strings"
	"time"

	"badabing/internal/lab"
	"badabing/internal/probe"
	"badabing/internal/session"
	"badabing/internal/session/simtransport"
	"badabing/internal/session/wiretransport"
	"badabing/internal/simnet"
	"badabing/internal/wire"
)

// probeFlowID is the flow id reserved for measurement traffic on simulated
// paths (cross-traffic ids are allocated well above it, as in the lab).
const probeFlowID = 7

// transportBuilder constructs the measurement substrate for a session.
// Simulated scenarios build their path with seed+1 so cross-traffic
// randomness stays decoupled from the schedule's.
type transportBuilder func(cfg SessionConfig, seed int64, slot time.Duration) (session.Transport, error)

// scenarioOf maps a scenario name to a transport builder.
func scenarioOf(name string) (transportBuilder, error) {
	switch strings.ToLower(name) {
	case "idle":
		// A loss-free path: the testbed topology with no cross traffic.
		return simScenario(func(int64) (*simnet.Sim, *simnet.Dumbbell) {
			s := simnet.New()
			return s, simnet.NewDumbbell(s, simnet.DumbbellConfig{})
		}), nil
	case "tcp", "infinite-tcp":
		return simScenario(labScenario(lab.InfiniteTCP)), nil
	case "cbr":
		return simScenario(labScenario(lab.CBRUniform)), nil
	case "cbr-mixed":
		return simScenario(labScenario(lab.CBRMixed)), nil
	case "web":
		return simScenario(labScenario(lab.Web)), nil
	case "wire":
		return wireScenario, nil
	default:
		return nil, fmt.Errorf("fleet: unknown scenario %q", name)
	}
}

func labScenario(sc lab.Scenario) func(seed int64) (*simnet.Sim, *simnet.Dumbbell) {
	return func(seed int64) (*simnet.Sim, *simnet.Dumbbell) {
		p := lab.NewPath(sc, lab.RunConfig{Seed: seed})
		return p.Sim, p.D
	}
}

func simScenario(build func(seed int64) (*simnet.Sim, *simnet.Dumbbell)) transportBuilder {
	return func(cfg SessionConfig, seed int64, slot time.Duration) (session.Transport, error) {
		sim, d := build(seed + 1)
		return simtransport.New(sim, d, probeFlowID, probe.BadabingConfig{Slot: slot}), nil
	}
}

// wireScenario measures the round trip to a real UDP echo endpoint
// (cfg.Target, e.g. a wire.Reflector). The session id doubles as the wire
// experiment id; the schedule seed is pinned so sender and collector agree
// on the schedule.
func wireScenario(cfg SessionConfig, seed int64, slot time.Duration) (session.Transport, error) {
	return wiretransport.DialOptions(cfg.Target, wire.SenderConfig{
		ExpID:    uint64(seed),
		P:        cfg.P,
		N:        cfg.Slots,
		Slot:     slot,
		Improved: !cfg.Basic,
		Seed:     seed,
	}, wiretransport.Options{
		Liveness: wire.LivenessConfig{Seed: seed},
	})
}

// runSession is the session body: it resolves the scenario to a transport
// and measures over it.
func runSession(ctx context.Context, s *Session, seed int64) error {
	cfg := s.cfg
	if cfg.Seed != 0 {
		seed = cfg.Seed
	}
	s.setSeed(seed)

	build, err := scenarioOf(cfg.Scenario)
	if err != nil {
		return err
	}
	tr, err := build(cfg, seed, cfg.slot())
	if err != nil {
		return err
	}
	defer tr.Close()
	return s.measure(ctx, tr, seed)
}

// measure hands one run of the session to the transport-neutral session
// engine, republishing each harvest step's update into the registry. The
// run's previous update is the lifetime totals' delta baseline, so it
// starts at zero with every run.
func (s *Session) measure(ctx context.Context, tr session.Transport, seed int64) error {
	s.setTransport(tr)
	var prev session.Counters
	_, err := session.Run(ctx, tr, s.cfg.sessionConfig(seed), func(u session.Update) {
		s.publish(u, prev)
		prev = u.Counters
	})
	return err
}
