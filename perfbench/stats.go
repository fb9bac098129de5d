package main

import (
	"context"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/session"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// medianSeconds is the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	ms := durationsMs(ds)
	return median(ms) / 1e3
}

// cpuSeconds is the process's cumulative user+system CPU time (rusage).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuSteal is each CPU's cumulative steal time in seconds: the time a
// hypervisor ran something else while that virtual CPU had work (the
// eighth field of the "cpuN" lines of /proc/stat, in 1/100 s). It is
// empty where /proc/stat is missing.
func cpuSteal() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []float64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		v, err := strconv.ParseFloat(f[8], 64)
		if err != nil {
			return nil
		}
		out = append(out, v/100)
	}
	return out
}

// stealSince is the steal time between two cpuSteal readings on the
// virtual CPU that lost the most. A single busy worker spends most of an
// interval on one CPU, so that is the time the hypervisor took from it;
// the sum over CPUs would add the steal of CPUs that ran only the
// garbage collector.
func stealSince(from, to []float64) float64 {
	var most float64
	for i := range min(len(from), len(to)) {
		most = max(most, to[i]-from[i])
	}
	return most
}

// interval is one timed stretch of work: its wall time and the steal
// during it, in seconds.
type interval struct{ wall, steal float64 }

// timed closes the interval that began at wall time t0 and steal reading
// s0.
func timed(s0 []float64, t0 time.Time) interval {
	return interval{wall: time.Since(t0).Seconds(), steal: stealSince(s0, cpuSteal())}
}

// share is the part of the wall time the host left to the work. It is
// at least 0.1, so a misread steal counter cannot zero a timing.
func (iv interval) share() float64 { return 1 - min(iv.steal/iv.wall, 0.9) }

// busy is the wall time less steal.
func (iv interval) busy() float64 { return iv.wall * iv.share() }

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapPeak samples the live heap (as of the latest GC) every 10 ms while
// a timed run is in progress. Each lap closes a window (a round, a cycle)
// and keeps that window's peak; finish reports the median window peak,
// so one window's unusual garbage-collection timing moves one sample.
type heapPeak struct {
	stop chan struct{}
	done sync.WaitGroup

	mu   sync.Mutex
	peak uint64
	laps []float64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				h.peak = max(h.peak, sample[0].Value.Uint64())
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// lap closes the current window.
func (h *heapPeak) lap() {
	h.mu.Lock()
	h.laps = append(h.laps, float64(h.peak)/(1<<20))
	h.peak = 0
	h.mu.Unlock()
}

// discard drops the current window's peak so far.
func (h *heapPeak) discard() {
	h.mu.Lock()
	h.peak = 0
	h.mu.Unlock()
}

// finish stops the sampler and returns the median window peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return median(h.laps)
}

// liveHeapAfterGC collects garbage and returns the live heap in bytes.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// timedTransport wraps a session.Transport and times the calls the
// session engine makes into it, so the remainder of session.Run's time
// is the engine's own harvest (marking, estimation, publish). With
// countAllocs set it also takes a Mallocs delta around each call; that
// is only meaningful when nothing else runs concurrently.
type timedTransport struct {
	inner       session.Transport
	tr          *tracer
	parent      spanRef
	countAllocs bool

	launch, advance, observe time.Duration
	advanceCalls, obsCalls   int
	advanceAllocs, obsAllocs uint64
	invalid                  int
}

func (t *timedTransport) Launch(ctx context.Context, slots []int64) error {
	sp := t.tr.begin("transport.launch", t.parent)
	start := time.Now()
	err := t.inner.Launch(ctx, slots)
	t.launch += time.Since(start)
	sp.endN(int64(len(slots)))
	return err
}

func (t *timedTransport) Now() time.Duration { return t.inner.Now() }

func (t *timedTransport) AdvanceTo(ctx context.Context, tt time.Duration) error {
	sp := t.tr.begin("transport.advance", t.parent)
	var m0 uint64
	if t.countAllocs {
		m0 = mallocs()
	}
	start := time.Now()
	err := t.inner.AdvanceTo(ctx, tt)
	t.advance += time.Since(start)
	if t.countAllocs {
		t.advanceAllocs += mallocs() - m0
	}
	t.advanceCalls++
	sp.end()
	return err
}

func (t *timedTransport) Observations() ([]badabing.ProbeObs, map[int64]bool) {
	sp := t.tr.begin("transport.observations", t.parent)
	var m0 uint64
	if t.countAllocs {
		m0 = mallocs()
	}
	start := time.Now()
	obs, invalid := t.inner.Observations()
	t.observe += time.Since(start)
	if t.countAllocs {
		t.obsAllocs += mallocs() - m0
	}
	t.obsCalls++
	t.invalid = len(invalid)
	sp.endN(int64(len(obs)))
	return obs, invalid
}

func (t *timedTransport) Close() error { return t.inner.Close() }

// inTransport is the total time spent inside the wrapped transport.
func (t *timedTransport) inTransport() time.Duration { return t.launch + t.advance + t.observe }
