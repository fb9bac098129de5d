package chaos_test

import (
	"bytes"
	"log/slog"
	"runtime"
	"testing"
	"time"

	"badabing/internal/chaos"
	"badabing/internal/fleet"
	"badabing/internal/health"
	"badabing/internal/store"
)

// tlogWriter forwards each structured log line to t.Logf so soak
// transitions land in the test output.
type tlogWriter struct{ t *testing.T }

func (w tlogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// TestSoakSelfHealing is the supervised soak harness: N wire sessions
// measure real loopback paths while the harness injects the failures
// the self-healing layer exists for — disk-full windows on the archive
// (FaultySink) and reflector kill/restart cycles (FlakyReflector) —
// with the full production wiring: store → fault injector → circuit
// breaker → registry, plus health monitor and resource watchdog.
//
// Invariants checked:
//   - every session still reaches a terminal state, none lost;
//   - health walks ok → degraded → ok around each disk outage;
//   - every spilled event is replayed, none dropped, and the reopened
//     archive holds exactly what the live store held;
//   - no goroutine or file-descriptor leak once everything shuts down.
//
// Sized for -short (one fault cycle, 2 sessions); `make soak` runs the
// full matrix.
func TestSoakSelfHealing(t *testing.T) {
	sessions, faultCycles := 5, 3
	var slots int64 = 400
	if testing.Short() {
		sessions, faultCycles, slots = 2, 1, 200
	}

	baseGoroutines := runtime.NumGoroutine()
	baseFDs := health.CountFDs()

	dir := t.TempDir()
	st, _, err := store.Open(store.Options{
		Dir:           dir,
		Fsync:         store.FsyncInterval,
		FsyncInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty := chaos.NewFaultySink(st)
	log := slog.New(slog.NewTextHandler(tlogWriter{t}, nil))
	mon := health.NewMonitor(log)
	breaker := fleet.NewBreakerSink(faulty, fleet.BreakerConfig{
		Threshold:     2,
		ProbeInterval: 25 * time.Millisecond,
		Health:        mon,
		Log:           log,
	})
	wd := health.NewWatchdog(mon, health.Budgets{
		MaxGoroutines: 10_000,
		MaxHeapBytes:  8 << 30,
	}, 50*time.Millisecond)
	wd.Start()
	defer wd.Stop()

	reg := fleet.NewRegistry(fleet.Config{MaxConcurrent: sessions, Store: breaker})
	closed := false
	defer func() {
		if !closed {
			reg.Close()
		}
	}()

	waitHealth := func(want health.State, what string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for mon.State() != want {
			if time.Now().After(deadline) {
				t.Fatalf("health never reached %v (%s); now %v: %+v", want, what, mon.State(), mon.Snapshot())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Launch the fleet: one reflector per session so kills are targeted.
	reflectors := make([]*chaos.FlakyReflector, sessions)
	ids := make([]string, sessions)
	for i := range reflectors {
		fr := chaos.NewFlakyReflector(chaos.Fault{}, chaos.Fault{}, int64(300+i))
		if err := fr.Start(); err != nil {
			t.Fatal(err)
		}
		defer fr.Kill()
		reflectors[i] = fr
		s, err := reg.Create(fleet.SessionConfig{
			Scenario:           "wire",
			Target:             fr.Addr().String(),
			P:                  0.3,
			Slots:              slots,
			SlotMicros:         10_000,
			StepSlots:          20,
			Seed:               int64(300 + i),
			MaxRetries:         8,
			RetryBackoffMillis: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID
	}
	waitHealth(health.Ok, "startup")

	// The fault schedule: each cycle opens a disk-full window on the
	// archive and bounces one reflector under live traffic, then heals
	// both and requires the daemon to walk back to ok.
	for c := 0; c < faultCycles; c++ {
		time.Sleep(200 * time.Millisecond) // let healthy traffic flow
		fr := reflectors[c%len(reflectors)]
		fr.Kill()
		faulty.FailWrites(nil)
		// The next publish spills and the probe loop trips the breaker.
		waitHealth(health.Degraded, "disk outage")
		time.Sleep(200 * time.Millisecond) // publish into the spill
		faulty.RecoverWrites()
		if err := fr.Start(); err != nil {
			t.Fatalf("reflector restart (cycle %d): %v", c, err)
		}
		waitHealth(health.Ok, "recovery")
	}

	// Every session must reach a terminal state despite the abuse.
	deadline := time.Now().Add(90 * time.Second)
	for _, id := range ids {
		for {
			s, err := reg.Get(id)
			if err != nil {
				t.Fatalf("session %s vanished: %v", id, err)
			}
			if s.View().State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %s stuck in %v", id, s.View().State)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	// Drain the last spilled events (terminal states, final totals can
	// land right around RecoverWrites), then audit the breaker.
	drainDeadline := time.Now().Add(10 * time.Second)
	for {
		bs := breaker.Stats()
		if bs.State == "closed" && bs.SpillDepth == 0 {
			break
		}
		if time.Now().After(drainDeadline) {
			t.Fatalf("breaker never drained: %+v", bs)
		}
		time.Sleep(25 * time.Millisecond)
	}
	bs := breaker.Stats()
	if bs.Spilled == 0 {
		t.Error("fault windows spilled nothing; the soak exercised no outage")
	}
	if bs.Spilled != bs.Replayed {
		t.Errorf("spilled %d != replayed %d", bs.Spilled, bs.Replayed)
	}
	if bs.Dropped != 0 {
		t.Errorf("dropped %d spilled events; history lost", bs.Dropped)
	}
	if mon.State() != health.Ok {
		t.Errorf("final health %v, want ok: %+v", mon.State(), mon.Snapshot())
	}
	if mon.Transitions() < int64(2*faultCycles) {
		t.Errorf("health transitions = %d, want >= %d (ok→degraded→ok per cycle)",
			mon.Transitions(), 2*faultCycles)
	}

	livePoints := st.Stats().Points
	liveSessions := st.Stats().Sessions
	if livePoints == 0 || liveSessions != sessions {
		t.Errorf("live store: %d points, %d sessions; want >0 points, %d sessions",
			livePoints, liveSessions, sessions)
	}

	// Shut everything down; the registry closes breaker → injector →
	// store.
	reg.Close()
	closed = true
	wd.Stop()
	for _, fr := range reflectors {
		fr.Kill()
	}

	// The reopened archive must hold exactly what the live store held —
	// the spilled-and-replayed events are durable, not just in memory.
	st2, info, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen archive: %v", err)
	}
	reopenedPoints := 0
	for _, s := range info.Sessions {
		reopenedPoints += s.Points
		if !s.Terminal {
			t.Errorf("reopened session %s not terminal (state %s)", s.ID, s.State)
		}
	}
	if len(info.Sessions) != sessions || reopenedPoints != livePoints {
		t.Errorf("reopened archive: %d sessions / %d points, want %d / %d",
			len(info.Sessions), reopenedPoints, sessions, livePoints)
	}
	st2.Close()

	// Leak check: everything joined, every socket and segment closed.
	leakDeadline := time.Now().Add(15 * time.Second)
	for {
		g, fds := runtime.NumGoroutine(), health.CountFDs()
		if g <= baseGoroutines+2 && (fds < 0 || baseFDs < 0 || fds <= baseFDs+2) {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("leak: goroutines %d (base %d), fds %d (base %d)", g, baseGoroutines, fds, baseFDs)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
