package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"badabing/internal/health"
	"badabing/internal/obs"
	"badabing/internal/store"
)

// maxCreateBody bounds the create endpoint's request body: a
// SessionConfig is a few hundred bytes, so 1 MiB is generous and keeps a
// hostile client from buffering the daemon into the ground.
const maxCreateBody = 1 << 20

// HandlerOptions parameterizes the API's self-protection layer. The
// zero value disables all of it (the bare NewHandler behavior).
type HandlerOptions struct {
	// Health, when set, backs GET /readyz (deep readiness) and the
	// badabingd_health_* metric families; a failing daemon sheds
	// session creates with 503.
	Health *health.Monitor
	// MaxPending sheds creates with 503 + Retry-After once this many
	// sessions queue in Pending state — admitting more would only
	// starve pacing deadlines. 0 disables queue-depth shedding.
	MaxPending int
	// Limiter rate-limits creates per client address (429 +
	// Retry-After). nil disables.
	Limiter *RateLimiter
	// RetryAfter is the Retry-After hint on shed responses (503s and
	// registry-full 429s; rate-limit 429s compute their own from the
	// bucket). Default 5s.
	RetryAfter time.Duration
	// Obs is the observability registry backing GET /metrics. Every
	// subsystem's instruments registered into it are rendered by the
	// one exposition path; nil gets a private registry holding just
	// this handler's and the fleet registry's families.
	Obs *obs.Registry
}

// api is one handler instance: registry + options + self-instruments.
type api struct {
	reg  *Registry
	opts HandlerOptions

	shedNotReady obs.Counter
	shedQueue    obs.Counter
	shedRate     obs.Counter

	httpRequests obs.CounterVec
	httpLatency  obs.HistogramVec
	renderTime   obs.Histogram
}

// NewHandlerOpts returns the daemon's HTTP API for a registry:
//
//	POST   /v1/sessions           create a session (JSON SessionConfig body)
//	GET    /v1/sessions           list sessions
//	GET    /v1/sessions/{id}      one session, config + counters + snapshot
//	GET    /v1/sessions/{id}/snapshot   just the live estimate snapshot
//	GET    /v1/sessions/{id}/history    persisted F̂/D̂/loss-rate series (?from=&to=)
//	POST   /v1/sessions/{id}/stop cancel a session
//	DELETE /v1/sessions/{id}      remove a terminal session
//	GET    /v1/store/stats        durable-archive operational stats
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness
//	GET    /readyz                deep readiness (health state machine)
//
// All non-metrics responses are JSON; errors are {"error": "..."}.
// Status codes are uniform across routes: an unknown session id on any
// /v1/sessions/{id}/... sub-resource is 404; a malformed payload or
// query parameter is 400; unmatched paths are a JSON 404. Malformed or
// unknown-field JSON and invalid configs are client errors (400), never
// 500s; oversized bodies are cut off at 1 MiB (413); a draining
// registry answers 503. Shed responses (503 not-ready/queue-full/
// draining, 429 rate-limited/registry-full) always carry Retry-After.
//
// opts configures the self-protection layer (deep readiness,
// queue-depth shedding and per-client rate limiting on session creates)
// and the observability registry. The fleet registry's families, the
// health monitor's (when set), the admission shed counters and the
// daemon's HTTP self-metrics are all registered here; GET /metrics
// renders opts.Obs and nothing else.
func NewHandlerOpts(r *Registry, opts HandlerOptions) http.Handler {
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = 5 * time.Second
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	a := &api{reg: r, opts: opts}
	r.RegisterMetrics(opts.Obs)
	if opts.Health != nil {
		opts.Health.RegisterMetrics(opts.Obs)
	}
	shed := opts.Obs.CounterVec("badabingd_admission_shed_total",
		"Session creates shed by the overload-protection layer, by reason.", "reason")
	a.shedNotReady = shed.With("not_ready")
	a.shedQueue = shed.With("queue_full")
	a.shedRate = shed.With("rate_limited")
	a.httpRequests = opts.Obs.CounterVec("badabingd_http_requests_total",
		"API requests served, by route and status class.", "route", "code")
	a.httpLatency = opts.Obs.HistogramVec("badabingd_http_request_seconds",
		"API request handling latency, by route.", nil, "route")
	a.renderTime = opts.Obs.Histogram("badabingd_metrics_render_seconds",
		"Time spent rendering the /metrics exposition.", nil)

	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, a.instrument(route, h))
	}

	// Every unmatched path falls through here: the API's 404s are JSON
	// on every route, not just the ones with a {id} lookup.
	handle("/", "other", func(w http.ResponseWriter, req *http.Request) {
		writeError(w, http.StatusNotFound, errors.New("not found"))
	})

	handle("POST /v1/sessions", "create", func(w http.ResponseWriter, req *http.Request) {
		if !a.admit(w, req) {
			return
		}
		req.Body = http.MaxBytesReader(w, req.Body, maxCreateBody)
		var cfg SessionConfig
		dec := json.NewDecoder(req.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, err)
				return
			}
			writeError(w, http.StatusBadRequest, err)
			return
		}
		s, err := r.Create(cfg)
		if err != nil {
			status := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrRegistryFull):
				// The registry is at MaxSessions: the client can retry
				// once something finishes or is deleted.
				status = http.StatusTooManyRequests
				setRetryAfter(w, opts.RetryAfter)
			case errors.Is(err, ErrClosed):
				// Draining: this daemon is going away.
				status = http.StatusServiceUnavailable
				setRetryAfter(w, opts.RetryAfter)
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusCreated, s.View())
	})

	handle("GET /v1/sessions", "list", func(w http.ResponseWriter, req *http.Request) {
		sessions := r.List()
		views := make([]View, len(sessions))
		for i, s := range sessions {
			views[i] = s.View()
		}
		writeJSON(w, http.StatusOK, map[string]any{"sessions": views})
	})

	handle("GET /v1/sessions/{id}", "get", func(w http.ResponseWriter, req *http.Request) {
		s, err := r.Get(req.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, s.View())
	})

	handle("GET /v1/sessions/{id}/snapshot", "snapshot", func(w http.ResponseWriter, req *http.Request) {
		s, err := r.Get(req.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"id":       s.ID,
			"state":    s.State(),
			"snapshot": s.Snapshot(),
		})
	})

	handle("GET /v1/sessions/{id}/history", "history", func(w http.ResponseWriter, req *http.Request) {
		s, err := r.Get(req.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		from, err := parseTimeParam(req.URL.Query().Get("from"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		to, err := parseTimeParam(req.URL.Query().Get("to"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		resp := historyResponse{ID: s.ID, Points: []historyPoint{}}
		if hs := r.HistorySourceOf(); hs != nil {
			resp.Store = true
			points, _ := hs.History(s.ID, from, to)
			for _, p := range points {
				resp.Points = append(resp.Points, historyPoint{
					Point:    p,
					At:       time.Unix(0, p.At).UTC(),
					LossRate: p.LossRate(),
				})
			}
		}
		resp.Count = len(resp.Points)
		writeJSON(w, http.StatusOK, resp)
	})

	handle("GET /v1/store/stats", "store_stats", func(w http.ResponseWriter, req *http.Request) {
		if ss := r.StatsSourceOf(); ss != nil {
			writeJSON(w, http.StatusOK, storeStatsResponse{Enabled: true, Stats: ptr(ss.Stats())})
			return
		}
		writeJSON(w, http.StatusOK, storeStatsResponse{Enabled: false})
	})

	handle("POST /v1/sessions/{id}/stop", "stop", func(w http.ResponseWriter, req *http.Request) {
		s, err := r.Stop(req.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, s.View())
	})

	handle("DELETE /v1/sessions/{id}", "delete", func(w http.ResponseWriter, req *http.Request) {
		err := r.Delete(req.PathValue("id"))
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrNotTerminal):
			writeError(w, http.StatusConflict, err)
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})

	handle("GET /metrics", "metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		start := time.Now()
		opts.Obs.Write(w)
		// Observed after the render, so each scrape reports the cost of
		// the previous one — standard self-metric lag.
		a.renderTime.Observe(time.Since(start).Seconds())
	})

	handle("GET /healthz", "healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	handle("GET /readyz", "readyz", a.readyz)

	return mux
}

// statusRecorder captures the status code a handler writes so the
// instrumentation middleware can label the request counter by class.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// codeClasses are the status-class label values, indexed by code/100.
var codeClasses = [6]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}

// instrument wraps a handler with the daemon's HTTP self-metrics: a
// per-route latency histogram and a per-route, per-status-class request
// counter. The per-route children are bound once here, at registration,
// so the per-request cost is two atomic updates — no label formatting.
func (a *api) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	latency := a.httpLatency.With(route)
	var byClass [6]obs.Counter
	for i := 1; i < len(codeClasses); i++ {
		byClass[i] = a.httpRequests.With(route, codeClasses[i])
	}
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		rec := statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(&rec, req)
		latency.Observe(time.Since(start).Seconds())
		if class := rec.status / 100; class >= 1 && class < len(byClass) {
			byClass[class].Inc()
		}
	}
}

// admit applies the create endpoint's shedding policy, in order of
// severity: a failing daemon (503), a pending queue already past its
// budget (503), then the per-client rate limit (429). Shed responses
// always carry Retry-After so well-behaved clients back off instead of
// hammering.
func (a *api) admit(w http.ResponseWriter, req *http.Request) bool {
	if a.opts.Health != nil && a.opts.Health.State() == health.Failing {
		a.shedNotReady.Inc()
		setRetryAfter(w, a.opts.RetryAfter)
		writeError(w, http.StatusServiceUnavailable, errors.New("fleet: daemon failing; not accepting sessions"))
		return false
	}
	if a.opts.MaxPending > 0 {
		if pending := a.reg.StateCounts()[Pending]; pending >= a.opts.MaxPending {
			a.shedQueue.Inc()
			setRetryAfter(w, a.opts.RetryAfter)
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("fleet: %d sessions already pending; retry later", pending))
			return false
		}
	}
	if a.opts.Limiter != nil {
		if ok, wait := a.opts.Limiter.Allow(clientKey(req.RemoteAddr)); !ok {
			a.shedRate.Inc()
			setRetryAfter(w, wait)
			writeError(w, http.StatusTooManyRequests, errors.New("fleet: per-client session create rate exceeded"))
			return false
		}
	}
	return true
}

// readyzResponse is the deep-readiness body: the aggregate state, the
// per-component probes behind it, and the shedding inputs.
type readyzResponse struct {
	Status   string           `json:"status"`
	Draining bool             `json:"draining,omitempty"`
	Pending  int              `json:"pending"`
	Health   *health.Snapshot `json:"health,omitempty"`
}

// readyz reports deep readiness: 200 while the daemon can accept
// sessions (including degraded — impaired but serving), 503 once it is
// failing or draining. Load balancers route on the code; operators read
// the component detail in the body.
func (a *api) readyz(w http.ResponseWriter, req *http.Request) {
	resp := readyzResponse{Status: health.Ok.String(), Pending: a.reg.StateCounts()[Pending]}
	if a.opts.Health != nil {
		snap := a.opts.Health.Snapshot()
		resp.Status = snap.State.String()
		resp.Health = &snap
	}
	status := http.StatusOK
	if resp.Status == health.Failing.String() {
		status = http.StatusServiceUnavailable
	}
	if a.reg.Draining() {
		resp.Draining = true
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	if status != http.StatusOK {
		setRetryAfter(w, a.opts.RetryAfter)
	}
	writeJSON(w, status, resp)
}

// setRetryAfter sets the Retry-After hint, always at least 1 second —
// the header's resolution.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// historyResponse is the history endpoint's JSON shape. Field order is
// fixed, so identical persisted series encode byte-for-byte identically
// across daemon restarts.
type historyResponse struct {
	ID     string         `json:"id"`
	Store  bool           `json:"store"`
	Count  int            `json:"count"`
	Points []historyPoint `json:"points"`
}

type historyPoint struct {
	store.Point
	At       time.Time `json:"at"`
	LossRate float64   `json:"loss_rate"`
}

type storeStatsResponse struct {
	Enabled bool         `json:"enabled"`
	Stats   *store.Stats `json:"stats,omitempty"`
}

func ptr[T any](v T) *T { return &v }

// parseTimeParam accepts RFC3339(Nano) or integer Unix seconds; empty
// means an open bound, which History reads from the zero Time.
func parseTimeParam(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	var t time.Time
	if secs, err := strconv.ParseInt(s, 10, 64); err == nil {
		t = time.Unix(secs, 0)
	} else if t, err = time.Parse(time.RFC3339Nano, s); err != nil {
		return time.Time{}, fmt.Errorf("fleet: bad time %q (want RFC3339 or unix seconds)", s)
	}
	if t.IsZero() {
		// An explicit bound at the zero instant is not open. No point
		// predates 1678, so a nanosecond later selects the same points.
		t = t.Add(time.Nanosecond)
	}
	return t, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
