package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"badabing/internal/chaos"
	"badabing/internal/health"
	"badabing/internal/store"
)

// flakySink is a scripted Sink: it records every call in order and
// fails all appends while failing is set. A non-zero delay slows every
// forward (set before use) so drains span multiple chunks.
type flakySink struct {
	delay   time.Duration
	mu      sync.Mutex
	failing bool
	calls   []string
}

var errFlaky = errors.New("flaky sink: write failed")

func (f *flakySink) note(call string) error {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing {
		return errFlaky
	}
	f.calls = append(f.calls, call)
	return nil
}

func (f *flakySink) setFailing(v bool) {
	f.mu.Lock()
	f.failing = v
	f.mu.Unlock()
}

func (f *flakySink) recorded() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

func (f *flakySink) SessionCreated(id string, at time.Time, cfgJSON []byte, seed int64) error {
	return f.note(fmt.Sprintf("created %s %d %s %d", id, at.UnixNano(), cfgJSON, seed))
}

func (f *flakySink) SessionState(id string, at time.Time, state string, terminal bool, errMsg string, retries int, seed int64) error {
	return f.note(fmt.Sprintf("state %s %d %s %v %q %d %d", id, at.UnixNano(), state, terminal, errMsg, retries, seed))
}

func (f *flakySink) SessionPoint(id string, p store.Point) error {
	return f.note(fmt.Sprintf("point %s %d %d", id, p.At, p.ProbesSent))
}

func (f *flakySink) RegistryTotals(t store.Totals) error {
	return f.note(fmt.Sprintf("totals %d", t.ProbesSent))
}

// publish drives n scripted events through the sink, tagging them with
// base so interleaved batches stay distinguishable.
func publish(s Sink, base, n int) {
	t0 := time.Unix(1700000000, 0).UTC()
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(base+i) * time.Second)
		s.SessionPoint("s0001", store.Point{At: at.UnixNano(), ProbesSent: int64(base + i)})
	}
}

func TestBreakerTripSpillReplay(t *testing.T) {
	inner := &flakySink{}
	b := NewBreakerSink(inner, BreakerConfig{Threshold: 3, ProbeInterval: time.Hour})
	defer b.Close()

	publish(b, 0, 2)
	if got := len(inner.recorded()); got != 2 {
		t.Fatalf("healthy forwards = %d, want 2", got)
	}

	inner.setFailing(true)
	publish(b, 2, 5)
	st := b.Stats()
	if st.State != "open" {
		t.Fatalf("state after failures = %s, want open", st.State)
	}
	if st.Trips != 1 {
		t.Fatalf("trips = %d, want 1", st.Trips)
	}
	if st.Spilled != 5 || st.SpillDepth != 5 {
		t.Fatalf("spilled/depth = %d/%d, want 5/5", st.Spilled, st.SpillDepth)
	}
	// Writes fail 3 times before the trip; the last 2 events spill
	// without touching the sink (the breaker is already open).
	if st.WriteErrors != 3 {
		t.Fatalf("write errors = %d, want 3", st.WriteErrors)
	}
	if b.Probe() {
		t.Fatal("Probe succeeded while sink still failing")
	}

	inner.setFailing(false)
	if !b.Probe() {
		t.Fatal("Probe failed after sink recovery")
	}
	st = b.Stats()
	if st.State != "closed" || st.SpillDepth != 0 || st.Replayed != 5 || st.Dropped != 0 {
		t.Fatalf("after recovery: %+v", st)
	}

	// Every event arrived, in publish order, with original payloads.
	want := make([]string, 0, 7)
	probe := &flakySink{}
	publish(probe, 0, 2)
	publish(probe, 2, 5)
	want = append(want, probe.recorded()...)
	got := inner.recorded()
	if len(got) != len(want) {
		t.Fatalf("forwarded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestBreakerOrderingBehindSpill(t *testing.T) {
	// Once anything is spilled, later events must queue behind it even
	// though the sink is healthy again — otherwise replay would reorder
	// history.
	inner := &flakySink{}
	b := NewBreakerSink(inner, BreakerConfig{Threshold: 1, ProbeInterval: time.Hour})
	defer b.Close()

	inner.setFailing(true)
	publish(b, 0, 1) // trips and spills event 0
	inner.setFailing(false)
	publish(b, 1, 3) // healthy sink, but events 1..3 must spill behind 0

	if got := len(inner.recorded()); got != 0 {
		t.Fatalf("sink saw %d events before replay, want 0", got)
	}
	if !b.Probe() {
		t.Fatal("Probe failed with healthy sink")
	}
	got := inner.recorded()
	if len(got) != 4 {
		t.Fatalf("forwarded %d events, want 4", len(got))
	}
	for i, call := range got {
		want := fmt.Sprintf("point s0001 %d %d", time.Unix(1700000000, 0).UTC().Add(time.Duration(i)*time.Second).UnixNano(), i)
		if call != want {
			t.Fatalf("event %d = %q, want %q", i, call, want)
		}
	}
}

func TestBreakerPartialReplayStaysOpen(t *testing.T) {
	inner := &flakySink{}
	b := NewBreakerSink(inner, BreakerConfig{Threshold: 1, ProbeInterval: time.Hour})
	defer b.Close()

	inner.setFailing(true)
	publish(b, 0, 4)
	inner.setFailing(false)
	if !b.Probe() {
		t.Fatal("Probe failed with healthy sink")
	}

	// A second outage must trip again and preserve the new spill across
	// failed probes.
	inner.setFailing(true)
	publish(b, 4, 2)
	if st := b.Stats(); st.State != "open" || st.SpillDepth != 2 {
		t.Fatalf("after second outage: %+v", st)
	}
	if b.Probe() {
		t.Fatal("Probe succeeded while sink failing")
	}
	if st := b.Stats(); st.SpillDepth != 2 || st.State != "open" {
		t.Fatalf("after failed probe: %+v", st)
	}
	inner.setFailing(false)
	if !b.Probe() {
		t.Fatal("Probe failed after recovery")
	}
	if st := b.Stats(); st.Trips != 2 || st.Replayed != 6 || st.Dropped != 0 {
		t.Fatalf("final stats: %+v", st)
	}
}

func TestBreakerSpillOverflow(t *testing.T) {
	mon := health.NewMonitor(nil)
	inner := &flakySink{}
	b := NewBreakerSink(inner, BreakerConfig{
		Threshold:     1,
		SpillCapacity: 3,
		ProbeInterval: time.Hour,
		Health:        mon,
	})
	defer b.Close()

	if mon.State() != health.Ok {
		t.Fatalf("initial health = %v, want ok", mon.State())
	}
	inner.setFailing(true)
	publish(b, 0, 3)
	if mon.State() != health.Degraded {
		t.Fatalf("health while spilling = %v, want degraded", mon.State())
	}
	publish(b, 3, 2) // overflows: capacity 3
	st := b.Stats()
	if st.Dropped != 2 || st.SpillDepth != 3 {
		t.Fatalf("overflow stats: %+v", st)
	}
	if mon.State() != health.Failing {
		t.Fatalf("health after overflow = %v, want failing", mon.State())
	}

	inner.setFailing(false)
	if !b.Probe() {
		t.Fatal("Probe failed after recovery")
	}
	// Recovered, but the gap is permanent: degraded, not ok.
	if mon.State() != health.Degraded {
		t.Fatalf("health after recovery with drops = %v, want degraded", mon.State())
	}
	if got := len(inner.recorded()); got != 3 {
		t.Fatalf("sink saw %d events, want the 3 surviving ones", got)
	}
}

// TestBreakerDrainReplaysAcrossChunks: a spill far larger than one
// drain chunk is still fully replayed, in order, by a single probe.
func TestBreakerDrainReplaysAcrossChunks(t *testing.T) {
	inner := &flakySink{}
	b := NewBreakerSink(inner, BreakerConfig{Threshold: 1, ProbeInterval: time.Hour})
	defer b.Close()

	inner.setFailing(true)
	n := 2*drainChunk + 7
	publish(b, 0, n)
	inner.setFailing(false)
	if !b.Probe() {
		t.Fatal("Probe failed with healthy sink")
	}
	st := b.Stats()
	if st.State != "closed" || st.SpillDepth != 0 || st.Replayed != int64(n) {
		t.Fatalf("after chunked drain: %+v", st)
	}
	got := inner.recorded()
	if len(got) != n {
		t.Fatalf("forwarded %d events, want %d", len(got), n)
	}
	for i, call := range got {
		want := fmt.Sprintf("point s0001 %d %d", time.Unix(1700000000, 0).UTC().Add(time.Duration(i)*time.Second).UnixNano(), i)
		if call != want {
			t.Fatalf("event %d = %q, want %q", i, call, want)
		}
	}
}

// TestBreakerDeliverConcurrentWithDrain: while a long drain is in
// flight (yielding the mutex between chunks), concurrent publishes must
// neither stall for the whole replay nor break the ordering invariant —
// they spill behind the queue and everything reaches the sink exactly
// once, in publish order.
func TestBreakerDeliverConcurrentWithDrain(t *testing.T) {
	inner := &flakySink{delay: 100 * time.Microsecond}
	b := NewBreakerSink(inner, BreakerConfig{Threshold: 1, ProbeInterval: time.Hour})
	defer b.Close()

	inner.setFailing(true)
	publish(b, 0, 3*drainChunk)
	inner.setFailing(false)

	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Probe()
	}()
	// Races the drain: these interleave with chunk yields and must queue
	// behind the spilled events.
	publish(b, 3*drainChunk, drainChunk)
	<-done
	// Anything spilled after the drain observed an empty buffer is
	// picked up by one more probe.
	if b.Stats().SpillDepth > 0 && !b.Probe() {
		t.Fatal("final Probe failed with healthy sink")
	}

	n := 4 * drainChunk
	got := inner.recorded()
	if len(got) != n {
		t.Fatalf("forwarded %d events, want %d", len(got), n)
	}
	for i, call := range got {
		want := fmt.Sprintf("point s0001 %d %d", time.Unix(1700000000, 0).UTC().Add(time.Duration(i)*time.Second).UnixNano(), i)
		if call != want {
			t.Fatalf("event %d = %q, want %q", i, call, want)
		}
	}
	if st := b.Stats(); st.Dropped != 0 || st.SpillDepth != 0 {
		t.Fatalf("final stats: %+v", st)
	}
}

func TestBreakerCloseDropsUnreplayed(t *testing.T) {
	inner := &flakySink{}
	b := NewBreakerSink(inner, BreakerConfig{Threshold: 1, ProbeInterval: time.Hour})
	inner.setFailing(true)
	publish(b, 0, 3)
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := b.Stats(); st.Dropped != 3 || st.SpillDepth != 0 {
		t.Fatalf("stats after close: %+v", st)
	}
}

// TestKillTheDisk is the acceptance test for the self-healing store
// path: an identical scripted event sequence is driven through (a) a
// breaker wrapping a fault-injected real store, with a disk-full window
// mid-run, and (b) a plain store with no faults. After recovery and a
// clean shutdown, both archives are reopened from disk and must hold
// byte-identical session history.
func TestKillTheDisk(t *testing.T) {
	fixed := time.Unix(1700000000, 0).UTC()
	openStore := func(dir string) *store.Store {
		t.Helper()
		s, _, err := store.Open(store.Options{
			Dir:   dir,
			Fsync: store.FsyncAlways,
			Now:   func() time.Time { return fixed },
		})
		if err != nil {
			t.Fatalf("store.Open(%s): %v", dir, err)
		}
		return s
	}

	faultedDir := t.TempDir()
	controlDir := t.TempDir()

	faulted := chaos.NewFaultySink(openStore(faultedDir))
	mon := health.NewMonitor(nil)
	b := NewBreakerSink(faulted, BreakerConfig{
		Threshold:     2,
		ProbeInterval: time.Hour, // probes driven manually
		Health:        mon,
	})
	control := openStore(controlDir)

	// The scripted run: one session's lifecycle with points spanning
	// the outage. step(phase) drives both sinks identically.
	cfgJSON := []byte(`{"target":"10.0.0.1:8000","duration":"30s"}`)
	script := func(s Sink, phase int) {
		switch phase {
		case 0:
			s.SessionCreated("s0001", fixed, cfgJSON, 42)
			s.SessionState("s0001", fixed.Add(1*time.Second), "running", false, "", 0, 42)
			s.SessionPoint("s0001", store.Point{At: fixed.Add(2 * time.Second).UnixNano(), SlotsDone: 10, M: 5, Frequency: 0.05, ProbesSent: 30, ProbesLost: 2, PacketsSent: 90, PacketsLost: 3, Experiments: 5})
		case 1: // during the disk-full window
			s.SessionPoint("s0001", store.Point{At: fixed.Add(4 * time.Second).UnixNano(), SlotsDone: 20, M: 11, Frequency: 0.08, Duration: 1.5, HasDuration: true, ProbesSent: 60, ProbesLost: 5, PacketsSent: 180, PacketsLost: 8, Experiments: 11})
			s.SessionPoint("s0001", store.Point{At: fixed.Add(6 * time.Second).UnixNano(), SlotsDone: 30, M: 17, Frequency: 0.07, Duration: 1.2, HasDuration: true, ProbesSent: 90, ProbesLost: 7, PacketsSent: 270, PacketsLost: 11, Experiments: 17})
			s.RegistryTotals(store.Totals{SessionsCreated: 1, ProbesSent: 90, ProbesLost: 7, PacketsSent: 270, PacketsLost: 11, Experiments: 17})
		case 2: // after recovery
			s.SessionPoint("s0001", store.Point{At: fixed.Add(8 * time.Second).UnixNano(), SlotsDone: 40, M: 23, Frequency: 0.06, Duration: 1.1, HasDuration: true, ProbesSent: 120, ProbesLost: 8, PacketsSent: 360, PacketsLost: 12, Experiments: 23})
			s.SessionState("s0001", fixed.Add(9*time.Second), "done", true, "", 0, 42)
			s.RegistryTotals(store.Totals{SessionsCreated: 1, SessionsFinished: 1, ProbesSent: 120, ProbesLost: 8, PacketsSent: 360, PacketsLost: 12, Experiments: 23})
		}
	}

	// Phase 0: both healthy.
	script(b, 0)
	script(control, 0)
	if mon.State() != health.Ok {
		t.Fatalf("health before fault = %v, want ok", mon.State())
	}

	// Phase 1: kill the faulted store's disk mid-run. Sessions keep
	// publishing; the breaker trips and spills.
	faulted.FailWrites(nil)
	script(b, 1)
	script(control, 1)
	if st := b.Stats().State; st != BreakerOpen.String() {
		t.Fatalf("breaker state during outage = %v, want open", st)
	}
	if mon.State() != health.Degraded {
		t.Fatalf("health during outage = %v, want degraded", mon.State())
	}
	if b.Probe() {
		t.Fatal("Probe succeeded while the disk is still down")
	}

	// Recovery: writes work again; the probe replays the spill.
	faulted.RecoverWrites()
	if !b.Probe() {
		t.Fatal("Probe failed after disk recovery")
	}
	if mon.State() != health.Ok {
		t.Fatalf("health after recovery = %v, want ok", mon.State())
	}
	st := b.Stats()
	if st.Dropped != 0 || st.Spilled == 0 || st.Spilled != st.Replayed {
		t.Fatalf("spill accounting after recovery: %+v", st)
	}

	// Phase 2: both healthy again.
	script(b, 2)
	script(control, 2)

	if err := b.Close(); err != nil { // closes faulted → store
		t.Fatalf("breaker Close: %v", err)
	}
	if err := control.Close(); err != nil {
		t.Fatalf("control Close: %v", err)
	}

	// Reopen both archives from disk: recovery info and history must be
	// byte-identical — the outage left no trace in the persisted record.
	snapshot := func(dir string) []byte {
		t.Helper()
		s, info, err := store.Open(store.Options{
			Dir:   dir,
			Fsync: store.FsyncAlways,
			Now:   func() time.Time { return fixed },
		})
		if err != nil {
			t.Fatalf("reopen %s: %v", dir, err)
		}
		defer s.Close()
		hist, ok := s.History("s0001", time.Time{}, time.Time{})
		if !ok {
			t.Fatalf("%s: no history for s0001", dir)
		}
		blob, err := json.Marshal(struct {
			Sessions []store.Session
			History  []store.Point
			Totals   store.Totals
		}{s.Sessions(), hist, info.Totals})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return blob
	}
	got, want := snapshot(faultedDir), snapshot(controlDir)
	if string(got) != string(want) {
		t.Fatalf("post-recovery archive differs from unimpaired run:\nfaulted: %s\ncontrol: %s", got, want)
	}
}
