package health

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"badabing/internal/obs"
)

// Budgets are the resource ceilings the watchdog enforces. A zero field
// disables that dimension. Crossing a budget degrades the daemon;
// crossing failingMultiple times a budget marks it failing (new work is
// shed until usage falls back under).
type Budgets struct {
	// MaxGoroutines bounds runtime.NumGoroutine().
	MaxGoroutines int
	// MaxFDs bounds open file descriptors (counted via /proc/self/fd;
	// silently disabled where that is unavailable).
	MaxFDs int
	// MaxHeapBytes bounds the live heap (runtime MemStats HeapAlloc).
	MaxHeapBytes uint64
}

// failingMultiple is the hard-stop factor over a budget that escalates
// degraded to failing.
const failingMultiple = 2.0

// Usage is one watchdog sample.
type Usage struct {
	Goroutines int
	// OpenFDs is -1 where the platform offers no cheap count.
	OpenFDs   int
	HeapBytes uint64
}

// Watchdog periodically samples process resource usage against Budgets
// and feeds the result into a Monitor under the "resources" component.
// Breaches log once per transition (via the monitor), not per sample.
type Watchdog struct {
	mon      *Monitor
	budgets  Budgets
	interval time.Duration

	// sample is injectable so tests can script breaches.
	sample func() Usage

	mu   sync.Mutex
	last Usage

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// Component is the monitor component name the watchdog reports under.
const Component = "resources"

// NewWatchdog builds a watchdog feeding mon. interval <= 0 defaults to
// 10s. Start begins sampling; Check runs one pass synchronously.
func NewWatchdog(mon *Monitor, budgets Budgets, interval time.Duration) *Watchdog {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	return &Watchdog{
		mon:      mon,
		budgets:  budgets,
		interval: interval,
		sample:   sampleUsage,
		stop:     make(chan struct{}),
	}
}

// setSample injects a usage source for tests.
func (w *Watchdog) setSample(f func() Usage) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sample = f
}

// Start launches the sampling loop (idempotent per watchdog; call once).
func (w *Watchdog) Start() {
	w.Check()
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(w.interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.Check()
			}
		}
	}()
}

// Stop ends the sampling loop and waits for it to exit (idempotent).
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.done.Wait()
}

// Check runs one sampling pass, updates the monitor and returns the
// state it reported.
func (w *Watchdog) Check() State {
	w.mu.Lock()
	sample := w.sample
	w.mu.Unlock()
	u := sample()
	w.mu.Lock()
	w.last = u
	w.mu.Unlock()

	state, reason := w.judge(u)
	w.mon.Set(Component, state, reason)
	return state
}

// judge grades one sample against the budgets.
func (w *Watchdog) judge(u Usage) (State, string) {
	state := Ok
	var reasons []string
	grade := func(used, budget float64, dim, unit string) {
		if budget <= 0 {
			return
		}
		switch {
		case used >= budget*failingMultiple:
			state = worse(state, Failing)
			reasons = append(reasons, fmt.Sprintf("%s %.0f%s >= %.1fx budget %.0f%s", dim, used, unit, failingMultiple, budget, unit))
		case used > budget:
			state = worse(state, Degraded)
			reasons = append(reasons, fmt.Sprintf("%s %.0f%s over budget %.0f%s", dim, used, unit, budget, unit))
		}
	}
	grade(float64(u.Goroutines), float64(w.budgets.MaxGoroutines), "goroutines", "")
	if u.OpenFDs >= 0 {
		grade(float64(u.OpenFDs), float64(w.budgets.MaxFDs), "fds", "")
	}
	grade(float64(u.HeapBytes), float64(w.budgets.MaxHeapBytes), "heap", "B")
	return state, strings.Join(reasons, "; ")
}

// Last returns the most recent sample (zero before the first Check).
func (w *Watchdog) Last() Usage {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

// RegisterMetrics registers the watchdog gauges; each scrape mirrors
// the most recent sample. open_fds renders only where the platform can
// count file descriptors (the pre-registry writer's conditional).
func (w *Watchdog) RegisterMetrics(o *obs.Registry) {
	goroutines := o.Gauge("badabingd_watchdog_goroutines", "Goroutines at the last watchdog sample.")
	openFDs := o.GaugeVec("badabingd_watchdog_open_fds", "Open file descriptors at the last watchdog sample.")
	heap := o.Gauge("badabingd_watchdog_heap_bytes", "Live heap bytes at the last watchdog sample.")
	o.OnScrape(func() {
		u := w.Last()
		goroutines.SetInt(int64(u.Goroutines))
		openFDs.Reset()
		if u.OpenFDs >= 0 {
			openFDs.With().SetInt(int64(u.OpenFDs))
		}
		heap.Set(float64(u.HeapBytes))
	})
}

// sampleUsage reads the live process counters.
func sampleUsage() Usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Usage{
		Goroutines: runtime.NumGoroutine(),
		OpenFDs:    CountFDs(),
		HeapBytes:  ms.HeapAlloc,
	}
}

// CountFDs counts the process's open file descriptors via /proc/self/fd,
// -1 where that is unavailable (non-Linux). The readdir itself opens one
// fd; that transient is not subtracted — budgets are coarse.
func CountFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
