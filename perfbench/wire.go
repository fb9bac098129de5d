package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/session"
	"badabing/internal/session/wiretransport"
	"badabing/internal/wire"
)

// Each wire session is wireSlots slots of wireSlot (3 s of probing) plus
// the settle margin; the client runs them back to back.
const (
	wireSlots     = 600
	wireSlot      = badabing.DefaultSlot
	wireSettle    = 300 * time.Millisecond
	wireStepSlots = 100
	// Set-up runs wireSetupReps times before the timed run and
	// wireSetupsPerSession times after every session, so setup_s is a
	// median over the whole run rather than over one moment of the host.
	wireSetupReps        = 51
	wireSetupsPerSession = 16
	wireP                = 0.3
	wireLagBudgetF       = 0.5 // §7: a probe more than slot/2 late is invalid
)

// wireBed is the reflector the sessions measure against, with a tap that
// decodes every probe packet's header.
type wireBed struct {
	conn net.PacketConn
	refl *wire.Reflector
	done chan struct{}
	tr   *tracer

	mu      sync.Mutex
	packets []tapPacket
}

// tapPacket is one probe packet as the reflector saw it, with its lag
// (SendTime - slot deadline: sender pacing) and arrival (tap time - slot
// deadline: pacing plus the forward trip), both in µs.
type tapPacket struct {
	expID        uint64
	lag, arrival float64
}

func startWireBed(tr *tracer) (*wireBed, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &wireBed{conn: conn, done: make(chan struct{}), tr: tr}
	b.refl = wire.NewReflectorConfig(conn, wire.ReflectorConfig{Shards: workers()})
	b.refl.SetTap(b.tap)
	go func() {
		defer close(b.done)
		b.refl.Run()
	}()
	return b, nil
}

// tap decodes each probe packet's header and records how late it left
// the sender and how late it reached the reflector, both against its slot
// deadline Start + Slot*SlotWidth. Liveness pings fail to decode as probe
// headers and are skipped.
func (b *wireBed) tap(data []byte, _ net.Addr) {
	now := time.Now().UnixNano()
	sp := b.tr.begin("wire.tap", spanRef{})
	defer sp.end()
	var h wire.Header
	if h.Unmarshal(data) != nil {
		return
	}
	deadline := h.Start + h.Slot*int64(h.SlotWidth)
	b.mu.Lock()
	b.packets = append(b.packets, tapPacket{h.ExpID, float64(h.SendTime-deadline) / 1e3, float64(now-deadline) / 1e3})
	b.mu.Unlock()
}

func (b *wireBed) close() {
	b.refl.Close()
	<-b.done
}

// wireSetup starts a reflector and completes one liveness handshake
// against it from a fresh socket: the point a session could start.
func wireSetup(tr *tracer, seed int64) (*wireBed, time.Duration, error) {
	root := tr.begin("wire.setup", spanRef{})
	defer root.end()
	start := time.Now()
	b, err := startWireBed(tr)
	if err != nil {
		return nil, 0, err
	}
	conn, err := net.Dial("udp", b.conn.LocalAddr().String())
	if err != nil {
		b.close()
		return nil, 0, err
	}
	defer conn.Close()
	sp := tr.begin("wire.Handshake", root)
	_, err = wire.Handshake(context.Background(), conn, wire.LivenessConfig{Seed: seed})
	sp.end()
	if err != nil {
		b.close()
		return nil, 0, err
	}
	return b, time.Since(start), nil
}

// wireOutcome is one session's result.
type wireOutcome struct {
	err                      error
	probes, lost, invalid    int
	writeFails               int64
	maxLag, observe, harvest time.Duration
	obsCalls, steps          int
	// liveHeap is the live heap right after the session returns, while
	// it still holds every observation.
	liveHeap uint64
	// toFinal is the session time from the last slot's deadline to the
	// final estimate: the settle margin plus the final harvest.
	toFinal time.Duration
}

// runWireSession measures one session over a fresh wiretransport socket.
func runWireSession(ctx context.Context, addr string, expID uint64, seed int64, tr *tracer) wireOutcome {
	var out wireOutcome
	root := tr.begin("wire.session", spanRef{})
	defer root.end()
	sp := tr.begin("wiretransport.DialOptions", root)
	t, err := wiretransport.DialOptions(addr, wire.SenderConfig{
		ExpID: expID, P: wireP, N: wireSlots, Slot: wireSlot, Improved: true, Seed: seed,
	}, wiretransport.Options{Liveness: wire.LivenessConfig{Seed: seed}})
	sp.end()
	if err != nil {
		out.err = err
		return out
	}
	tt := &timedTransport{inner: t, tr: tr, parent: root}
	start := time.Now()
	res, err := session.Run(ctx, tt, session.Config{
		P: wireP, Slots: wireSlots, Slot: wireSlot, Improved: true, Seed: seed,
		StepSlots: wireStepSlots, Settle: wireSettle,
	}, nil)
	total := time.Since(start)
	out.toFinal = t.Now() - wireSlots*wireSlot
	out.liveHeap = liveHeapAfterGC()
	t.Close()
	out.err = err
	out.writeFails = t.WriteFailures()
	out.maxLag = t.SendStats().MaxLag
	out.invalid = tt.invalid
	out.observe, out.obsCalls, out.steps = tt.observe, tt.obsCalls, tt.advanceCalls
	out.harvest = total - tt.inTransport()
	if err == nil {
		out.probes = res.Probes
		out.lost = int(res.Final.Counters.ProbesLost)
	}
	return out
}

// runWireLoopback is the wire-loopback workload: one client runs live
// sessions back to back, closed loop, against an in-process reflector
// over the host loopback interface. One client, not two: the sender
// busy-waits the last 2 ms before every probe, and two of them plus the
// reflector on a 2-CPU host starve each other into late probes.
func runWireLoopback(ctx context.Context, o options) (*report, error) {
	rep := &report{Workload: "wire-loopback"}
	var setups []time.Duration
	var bed *wireBed
	for i := 0; i < wireSetupReps; i++ {
		b, d, err := wireSetup(o.tr, o.seed+int64(i)+1)
		if err != nil {
			return nil, fmt.Errorf("wire setup: %w", err)
		}
		setups = append(setups, d)
		if i < wireSetupReps-1 {
			b.close()
		} else {
			bed = b
		}
	}
	defer bed.close()
	addr := bed.conn.LocalAddr().String()

	rng := rand.New(rand.NewSource(o.seed))
	var outcomes []wireOutcome
	cpu0 := cpuSeconds()
	start := time.Now()
	// rates holds each session's probes per second; ops_per_s is their
	// median.
	var rates []float64
	var asideCPU float64
	for expID := uint64(1); len(outcomes) == 0 || time.Since(start) < o.seconds; expID++ {
		t0 := time.Now()
		out := runWireSession(ctx, addr, expID, rng.Int63n(1<<40)+1, o.tr)
		rates = append(rates, float64(out.probes)/time.Since(t0).Seconds())
		outcomes = append(outcomes, out)
		c0 := cpuSeconds()
		for i := 0; i < wireSetupsPerSession; i++ {
			b, d, err := wireSetup(o.tr, o.seed+int64(len(setups))+1)
			if err != nil {
				return nil, fmt.Errorf("wire setup: %w", err)
			}
			b.close()
			setups = append(setups, d)
		}
		asideCPU += cpuSeconds() - c0
	}
	cpu := cpuSeconds() - cpu0 - asideCPU

	var probes, lost, invalid int
	var maxLag, observe, harvest time.Duration
	var obsCalls, steps int
	var heaps, toFinal []float64
	for _, out := range outcomes {
		rep.check(out.err == nil, "session error: %v", out.err)
		rep.check(out.writeFails == 0, "%d probe write failures", out.writeFails)
		probes += out.probes
		lost += out.lost
		invalid += out.invalid
		maxLag = max(maxLag, out.maxLag)
		observe += out.observe
		obsCalls += out.obsCalls
		harvest += out.harvest
		steps += out.steps
		heaps = append(heaps, float64(out.liveHeap)/(1<<20))
		if out.err == nil {
			toFinal = append(toFinal, float64(out.toFinal)/1e6)
		}
	}
	// A late probe is not a failed operation: the session sent it, got it
	// back and set it aside itself (§7). Host stalls make a few late in
	// most runs, so they are counted in wire.late_probes instead.
	rep.Attempted += int64(probes)
	rep.Failed += int64(lost)
	if probes == 0 {
		return nil, fmt.Errorf("no wire probes sent: %v", rep.Checks)
	}
	// Arrival percentiles are taken per session and reported as the median
	// across sessions, so a host stall during one session moves one
	// sample, not the run's figure.
	bed.mu.Lock()
	var lags []float64
	bySession := make(map[uint64][]float64)
	for _, p := range bed.packets {
		lags = append(lags, p.lag)
		bySession[p.expID] = append(bySession[p.expID], p.arrival)
	}
	bed.mu.Unlock()
	var arrP50, arrP90 []float64
	for _, xs := range bySession {
		arrP50 = append(arrP50, quantile(xs, 0.5))
		arrP90 = append(arrP90, quantile(xs, 0.9))
	}
	rep.infof("%d sessions of %d slots at %v, 1 client; %d probes, %d lost, %d late (> slot/2); traffic crosses loopback",
		len(outcomes), wireSlots, wireSlot, probes, lost, invalid)
	rep.infof("pacing lag µs: p50 %.1f p90 %.1f p99 %.1f max %.1f; per-session arrival p90 µs: %.1f",
		quantile(lags, 0.5), quantile(lags, 0.9), quantile(lags, 0.99), quantile(lags, 1), arrP90)

	budgetUs := float64(wireSlot) * wireLagBudgetF / 1e3
	rep.e2e("setup_s", "s", medianSeconds(setups), len(setups), "median: reflector up + first liveness handshake")
	rep.e2e("ops_per_s", "1/s", median(rates), len(rates), "median over sessions of probes sent per wall second")
	rep.e2e("cpu_us_per_op", "us", cpu/float64(probes)*1e6, probes, "process CPU per probe")
	rep.e2e("latency_p50_ms", "ms", median(toFinal), len(toFinal),
		"median over sessions of last slot deadline to final estimate (settle + final harvest)")
	rep.e2e("peak_heap_mb", "MiB", median(heaps), len(heaps), "median over sessions of the live heap at session end")

	rep.layer("wire.pacing_lag_p50_us", "us", quantile(lags, 0.5), len(lags), "SendTime - slot deadline")
	rep.layer("wire.arrival_p50_us", "us", median(arrP50), len(lags),
		"median over sessions of p50 probe-packet arrival at the reflector after its slot deadline")
	rep.layer("wire.arrival_p90_us", "us", median(arrP90), len(lags),
		"median over sessions of p90 arrival after the slot deadline")
	rep.layer("wire.pacing_lag_p99_frac", "ratio", quantile(lags, 0.99)/budgetUs, len(lags), "p99 lag / (slot/2)")
	rep.layer("wire.pacing_lag_max_us", "us", float64(maxLag)/1e3, len(outcomes), "max SendStats.MaxLag")
	rep.layer("wire.late_probes", "count", float64(invalid), probes, "probes invalidated for lag > slot/2")
	rep.layer("wiretransport.observations_ms", "ms", float64(observe)/1e6/float64(max(obsCalls, 1)), obsCalls,
		"mean Observations (AssembleObs + skew) per call")
	rep.layer("session.harvest_ms.wire", "ms", float64(harvest)/1e6/float64(max(steps, 1)), steps,
		"session.Run time outside the transport, per step")
	return rep, nil
}
