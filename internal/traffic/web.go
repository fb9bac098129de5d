package traffic

import (
	"math/rand"
	"time"

	"badabing/internal/simnet"
	"badabing/internal/stats"
	"badabing/internal/tcp"
)

// The web mix's session shape and object sizes: one mix, like the
// paper's single Harpoon configuration.
const (
	// objectsPerSession is the mean number of objects fetched by a
	// session (geometric).
	objectsPerSession = 5.0
	// paretoAlpha shapes object sizes: heavy-tailed, the classic
	// web-size regime.
	paretoAlpha = 1.2
	// minObjectBytes is the Pareto scale parameter.
	minObjectBytes = 3000
	// maxObjectBytes truncates the tail.
	maxObjectBytes = 5e6
	// thinkTime is the mean pause between a session's objects.
	thinkTime = 500 * time.Millisecond
	// surgeMinBytes is the minimum object size for surge sessions.
	// Surges model flash crowds pulling substantial objects, so their
	// flows ramp far enough to overload the link.
	surgeMinBytes = 50_000
)

// WebConfig parameterizes the Harpoon-like web workload: Poisson user
// sessions fetching heavy-tailed objects over TCP, plus periodic load
// surges. The paper configured Harpoon "to briefly increase its load in
// order to induce packet loss, on average, every 20 seconds".
type WebConfig struct {
	// SessionRate is the mean arrival rate of steady-state sessions per
	// second. Default 30.
	SessionRate float64
	// SurgeSpacing is the mean time between load surges. Default 20 s.
	SurgeSpacing time.Duration
	// SurgeSessions is how many extra single-object sessions a surge
	// injects at once. Default 200 — enough to push the paper-scale
	// bottleneck into overflow briefly.
	SurgeSessions int
	// Seed for all workload randomness.
	Seed int64
}

func (c *WebConfig) applyDefaults() {
	if c.SessionRate == 0 {
		c.SessionRate = 30
	}
	if c.SurgeSpacing == 0 {
		c.SurgeSpacing = 20 * time.Second
	}
	if c.SurgeSessions == 0 {
		c.SurgeSessions = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Web drives the web-like workload. Arrivals and surges fire on timers,
// and a finished session returns to a pool with its TCP flow and think
// timer, so once the pool is warm a session allocates nothing.
type Web struct {
	sim *simnet.Sim
	d   *simnet.Dumbbell
	cfg WebConfig
	rng *rand.Rand
	ids *IDSpace

	arrival, surge *simnet.Timer
	pool           []*webSession // finished sessions, ready for reuse

	sessions  uint64
	transfers uint64
}

// webSession is one user session: its objects are fetched in turn over
// one reused TCP flow, with a think time between them.
type webSession struct {
	w         *Web
	flow      *tcp.Flow // nil until the first fetch
	think     *simnet.Timer
	done      func() // flow completion, bound once
	id        uint64 // flow id of the current object
	remaining int    // objects left, the current one included
	minBytes  float64
}

// NewWeb starts the workload immediately.
func NewWeb(sim *simnet.Sim, d *simnet.Dumbbell, ids *IDSpace, cfg WebConfig) *Web {
	cfg.applyDefaults()
	w := &Web{
		sim: sim,
		d:   d,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		ids: ids,
	}
	w.arrival = sim.NewTimer(w.arrive)
	w.surge = sim.NewTimer(w.surgeNow)
	w.scheduleArrival()
	w.scheduleSurge()
	return w
}

func (w *Web) scheduleArrival() {
	mean := time.Duration(float64(time.Second) / w.cfg.SessionRate)
	w.arrival.Reset(stats.Exp(w.rng, mean))
}

func (w *Web) arrive() {
	w.startSession()
	w.scheduleArrival()
}

func (w *Web) scheduleSurge() {
	w.surge.Reset(stats.Exp(w.rng, w.cfg.SurgeSpacing))
}

func (w *Web) surgeNow() {
	for i := 0; i < w.cfg.SurgeSessions; i++ {
		// Surge sessions fetch a single substantial object each:
		// a flash crowd pulse that overloads the queue briefly,
		// rather than a sustained multi-object load increase.
		w.sessions++
		w.session(1, surgeMinBytes).fetch()
	}
	w.scheduleSurge()
}

func (w *Web) startSession() {
	w.sessions++
	// Geometric number of objects with mean objectsPerSession.
	n := 1
	pCont := 1 - 1/objectsPerSession
	for w.rng.Float64() < pCont {
		n++
	}
	w.session(n, minObjectBytes).fetch()
}

// session takes a finished session from the pool, or makes one, for n
// objects of at least minBytes.
func (w *Web) session(n int, minBytes float64) *webSession {
	var ws *webSession
	if k := len(w.pool); k > 0 {
		ws = w.pool[k-1]
		w.pool[k-1] = nil
		w.pool = w.pool[:k-1]
	} else {
		ws = &webSession{w: w}
		ws.think = w.sim.NewTimer(ws.next)
		ws.done = ws.complete
	}
	ws.remaining, ws.minBytes = n, minBytes
	return ws
}

// fetch transfers the session's next object, or returns the session to
// the pool when none remain.
func (ws *webSession) fetch() {
	w := ws.w
	if ws.remaining <= 0 {
		w.pool = append(w.pool, ws)
		return
	}
	size := int64(stats.BoundedPareto(w.rng, paretoAlpha, ws.minBytes, maxObjectBytes))
	ws.id = w.ids.Next()
	cfg := tcp.Config{TotalBytes: size, OnComplete: ws.done}
	if ws.flow == nil {
		ws.flow = tcp.Start(w.sim, ws.id, w.d.Bottleneck, w.d.Reverse, w.d.FwdDemux, w.d.RevDemux, cfg)
	} else {
		ws.flow.Restart(ws.id, cfg)
	}
}

// complete runs when the current object's transfer finishes: after a
// think time the session fetches its next object.
func (ws *webSession) complete() {
	w := ws.w
	w.transfers++
	w.d.FwdDemux.Unregister(ws.id)
	w.d.RevDemux.Unregister(ws.id)
	ws.think.Reset(stats.Exp(w.rng, thinkTime))
}

func (ws *webSession) next() {
	ws.remaining--
	ws.fetch()
}
