package lab

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/capture"
	"badabing/internal/probe"
	"badabing/internal/simnet"
	"badabing/internal/traffic"
)

// MultiHop is an extension experiment beyond the paper's single-bottleneck
// evaluation (its §6.2 names "more complex multi-hop scenarios" as future
// work): a chain of hops, each independently congested by its own
// episodic cross traffic, measured end to end with BADABING. Ground truth
// for the end-to-end path is the union of the per-hop congested slots —
// a probe observes congestion if any hop's queue was overflowing.
type MultiHopResult struct {
	Hops      int
	PerHopF   []float64 // per-hop true congestion frequency
	TrueF     float64   // union frequency
	TrueD     float64   // mean duration of union episodes (seconds)
	EstF      float64
	EstD      float64
	Estimates badabing.Estimates
}

func (r MultiHopResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-hop extension: %d independently congested hops, end-to-end BADABING\n", r.Hops)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	for i, f := range r.PerHopF {
		fmt.Fprintf(w, "hop %d true freq\t%.4f\n", i, f)
	}
	fmt.Fprintf(w, "path (union) true freq\t%.4f\n", r.TrueF)
	fmt.Fprintf(w, "BADABING freq\t%.4f\n", r.EstF)
	fmt.Fprintf(w, "path true duration\t%.3fs\n", r.TrueD)
	fmt.Fprintf(w, "BADABING duration\t%.3fs\n", r.EstD)
	w.Flush()
	return b.String()
}

// MultiHop runs the extension experiment: hops chained links, each with
// its own episode injector (episodes offset in character per hop so the
// union is nontrivial), probed end to end at p = 0.3. The chain is one
// simulator, so the experiment is a single cell on the engine (it still
// honors the pool's timeout and cancellation).
func MultiHop(hops int, cfg RunConfig) MultiHopResult {
	cfg.applyDefaults()
	out := runCells(cfg, []cell[MultiHopResult]{{
		key: fmt.Sprintf("multihop/hops=%d/seed=%d/h=%v", hops, cfg.Seed, cfg.Horizon),
		run: func() MultiHopResult { return multiHopRun(hops, cfg) },
	}})
	return out[0]
}

func multiHopRun(hops int, cfg RunConfig) MultiHopResult {
	sim := simnet.New()
	ch := simnet.NewChain(sim, simnet.ChainConfig{Hops: hops})
	ids := traffic.NewIDSpace(1000)

	mons := make([]*capture.Monitor, hops)
	for i := 0; i < hops; i++ {
		mons[i] = capture.Attach(sim, ch.Hops[i], capture.Config{})
		// Distinct episode character per hop: durations and spacing
		// grow with depth; every hop's cross traffic is local to it.
		inj := traffic.EpisodeInjectorConfig{
			Durations:       []time.Duration{time.Duration(60+30*i) * time.Millisecond},
			MeanSpacing:     time.Duration(8+4*i) * time.Second,
			Overload:        4,
			BaseUtilization: 0.25,
			Seed:            cfg.Seed + int64(i),
		}
		startHopInjector(sim, ch, i, ids, inj)
	}

	slot := badabing.DefaultSlot
	plans := badabing.MustSchedule(badabing.ScheduleConfig{
		P: 0.3, N: int64(cfg.Horizon / slot), Improved: true, Seed: cfg.Seed + 99,
	})
	r := startBadabing(sim, ch.Entry(), ch.FwdDemux, probeFlowID, bbConfig{
		plans:  plans,
		marker: badabing.RecommendedMarker(0.3, slot),
		probe:  probe.BadabingConfig{Slot: slot},
	})
	sim.Run(cfg.Horizon + time.Second)

	res := MultiHopResult{Hops: hops, Estimates: r.estimates()}
	res.EstF = res.Estimates.Frequency
	res.EstD = res.Estimates.Duration

	// Union ground truth across hops.
	n := int(cfg.Horizon / slot)
	union := make([]bool, n)
	for _, m := range mons {
		bits := m.CongestedSlots(cfg.Horizon, slot)
		truth := m.Truth(cfg.Horizon, slot)
		res.PerHopF = append(res.PerHopF, truth.Frequency)
		for j, b := range bits {
			if b {
				union[j] = true
			}
		}
	}
	congested, episodes, runLen := 0, 0, 0
	var totalRun int
	for j := 0; j < n; j++ {
		if union[j] {
			congested++
			runLen++
		} else if runLen > 0 {
			episodes++
			totalRun += runLen
			runLen = 0
		}
	}
	if runLen > 0 {
		episodes++
		totalRun += runLen
	}
	res.TrueF = float64(congested) / float64(n)
	if episodes > 0 {
		res.TrueD = float64(totalRun) / float64(episodes) * slot.Seconds()
	}
	return res
}

// startHopInjector places an injector's cross traffic onto hop i only:
// its flows are registered on that hop's demux, so they exit the path
// there instead of loading downstream hops.
func startHopInjector(sim *simnet.Sim, ch *simnet.Chain, hop int, ids *traffic.IDSpace, cfg traffic.EpisodeInjectorConfig) {
	// The injector allocates flow ids internally; register a sink for
	// a generous id range on the hop demux via fallback-free explicit
	// registration: we wrap the id space so every id the injector takes
	// is also registered locally.
	local := &hopLocalIDs{inner: ids, demux: ch.HopDemux[hop]}
	traffic.NewEpisodeInjectorAt(sim, ch.Hops[hop], local, cfg)
}

// hopLocalIDs allocates flow ids and registers each on a hop-local demux
// sink, so the flows terminate at that hop.
type hopLocalIDs struct {
	inner *traffic.IDSpace
	demux *simnet.Demux
}

// Next implements the injector's id source.
func (h *hopLocalIDs) Next() uint64 {
	id := h.inner.Next()
	h.demux.Register(id, simnet.ReceiverFunc(func(*simnet.Packet) {}))
	return id
}
