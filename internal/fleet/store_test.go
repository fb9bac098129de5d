package fleet

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/store"
)

// TestRegistryEmitsStoreEvents: the registry's sink sees the full
// lifecycle — created, state transitions, published points and totals.
func TestRegistryEmitsStoreEvents(t *testing.T) {
	mem := store.NewMem()
	reg := NewRegistry(Config{MaxConcurrent: 1, Store: mem})
	reg.runOverride = func(ctx context.Context, s *Session, seed int64) error {
		snap := estimate.Snapshot{Kind: estimate.DefaultKind}
		snap.Total = badabing.Estimates{M: 10, Frequency: 0.25}
		snap.LastSlot = 99
		s.publish(snap, 100, SessionCounters{ProbesSent: 10, ProbesLost: 2, PacketsSent: 30, PacketsLost: 5, Experiments: 10})
		return nil
	}
	s, err := reg.Create(SessionConfig{Scenario: "idle", Slots: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, 10*time.Second); st != Done {
		t.Fatalf("state %v, want done", st)
	}
	reg.Close()

	events := mem.Events()
	joined := strings.Join(events, "\n")
	for _, want := range []string{
		"created " + s.ID,
		"state " + s.ID + " running",
		"point " + s.ID,
		"state " + s.ID + " done",
		"totals",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("sink missing %q in:\n%s", want, joined)
		}
	}
	hist, ok := mem.History(s.ID, time.Time{}, time.Time{})
	if !ok || len(hist) == 0 {
		t.Fatalf("no persisted history (ok=%v)", ok)
	}
	last := hist[len(hist)-1]
	if last.Frequency != 0.25 || last.ProbesSent != 10 {
		t.Errorf("persisted point %+v, want F=0.25 probes=10", last)
	}
	if tot := mem.Totals(); tot.SessionsCreated != 1 || tot.SessionsFinished != 1 {
		t.Errorf("persisted totals %+v", tot)
	}
	if mem.AfterClose() != 0 {
		t.Errorf("%d events arrived after close", mem.AfterClose())
	}
}

// TestDrainStoreOrdering is the regression test for the drain/store
// race: a session that outlives the drain deadline keeps publishing
// after Drain returns false, and the store must not close until that
// goroutine joins — no publish may ever hit a closed sink.
func TestDrainStoreOrdering(t *testing.T) {
	mem := store.NewMem()
	reg := NewRegistry(Config{MaxConcurrent: 1, Store: mem})
	release := make(chan struct{})
	reg.runOverride = func(ctx context.Context, s *Session, seed int64) error {
		<-ctx.Done() // drain cancels us...
		// ...but we ignore it for a while, publishing the whole time —
		// exactly the window the old Drain bug closed the store in.
		for i := 0; i < 20; i++ {
			var snap estimate.Snapshot
			snap.Total = badabing.Estimates{M: i + 1}
			snap.LastSlot = int64(i)
			s.publish(snap, int64(i), SessionCounters{Experiments: int64(i) + 1})
			time.Sleep(5 * time.Millisecond)
		}
		close(release)
		return ctx.Err()
	}
	s, err := reg.Create(SessionConfig{Scenario: "idle", Slots: 2000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.State() != Running {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %v", s.State())
		}
		time.Sleep(time.Millisecond)
	}

	if clean := reg.Drain(20 * time.Millisecond); clean {
		t.Fatal("drain reported clean with a stuck session")
	}
	// Drain's deadline has passed but the session goroutine is still
	// publishing: the store must still be open.
	if mem.Closed() {
		t.Fatal("store closed while a session goroutine was still alive")
	}

	<-release
	deadline = time.Now().Add(5 * time.Second)
	for !mem.Closed() {
		if time.Now().After(deadline) {
			t.Fatal("store never closed after the last session joined")
		}
		time.Sleep(time.Millisecond)
	}
	if n := mem.AfterClose(); n != 0 {
		t.Fatalf("%d publishes hit the closed store", n)
	}
	// Every publish before the join landed.
	hist, _ := mem.History(s.ID, time.Time{}, time.Time{})
	if len(hist) == 0 {
		t.Fatal("post-cancel publishes were lost")
	}
	reg.Close() // idempotent: the waiter already closed the store
}

// TestRestoreLifecycle drives the full crash-recovery path through a
// real on-disk store: terminal sessions come back in their final
// state, Resume sessions re-run, and everything else is marked
// Recovered.
func TestRestoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Minute).Truncate(time.Second)
	pt := store.Point{
		At: base.Add(10 * time.Second).UnixNano(), SlotsDone: 500, M: 50,
		Frequency: 0.1, ProbesSent: 50, ProbesLost: 5, PacketsSent: 150,
		PacketsLost: 12, Experiments: 50,
	}
	// s0001 finished before the "crash".
	st.SessionCreated("s0001", base, []byte(`{"scenario":"idle","slots":1000}`), 11)
	st.SessionState("s0001", base, "running", false, "", 0, 11)
	st.SessionPoint("s0001", pt)
	st.SessionState("s0001", base.Add(20*time.Second), "done", true, "", 0, 11)
	// s0002 was running and opted into resume.
	st.SessionCreated("s0002", base, []byte(`{"scenario":"idle","slots":1000,"resume":true}`), 22)
	st.SessionState("s0002", base, "running", false, "", 0, 22)
	st.SessionPoint("s0002", pt)
	// s0003 was running with no resume opt-in.
	st.SessionCreated("s0003", base, []byte(`{"scenario":"idle","slots":1000}`), 33)
	st.SessionState("s0003", base, "running", false, "", 0, 33)
	// s0004 has an undecodable config: skipped.
	st.SessionCreated("s0004", base, []byte(`{{{`), 44)
	st.RegistryTotals(store.Totals{SessionsCreated: 4, ProbesSent: 100})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, info, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(Config{MaxConcurrent: 2, Store: st2})
	defer reg.Close()
	resumedSeed := make(chan int64, 1)
	reg.runOverride = func(ctx context.Context, s *Session, seed int64) error {
		resumedSeed <- seed
		return nil
	}
	sum := reg.Restore(info)
	if sum.Terminal != 1 || sum.Resumed != 1 || sum.Marked != 1 || sum.Skipped != 1 {
		t.Fatalf("summary %+v, want 1/1/1/1", sum)
	}

	// Terminal: final state, snapshot and counters rebuilt from the last
	// persisted point.
	s1, err := reg.Get("s0001")
	if err != nil {
		t.Fatal(err)
	}
	if s1.State() != Done {
		t.Errorf("s0001 state %v, want done", s1.State())
	}
	v := s1.View()
	if !v.Recovered || v.Snapshot.Total.Frequency != 0.1 || v.Counters.ProbesSent != 50 {
		t.Errorf("s0001 view not rebuilt from last point: %+v", v)
	}

	// Resumed: runs again with the pinned seed.
	s2, err := reg.Get("s0002")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s2, 10*time.Second); st != Done {
		t.Fatalf("resumed session state %v, want done", st)
	}
	select {
	case seed := <-resumedSeed:
		if seed != 22 {
			t.Errorf("resumed seed %d, want the persisted 22", seed)
		}
	default:
		t.Error("resumed session never ran")
	}

	// Marked: terminal Recovered with the interruption as its error.
	s3, err := reg.Get("s0003")
	if err != nil {
		t.Fatal(err)
	}
	if s3.State() != Recovered {
		t.Errorf("s0003 state %v, want recovered", s3.State())
	}
	if err := s3.Err(); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Errorf("s0003 err %v, want ErrInterrupted", err)
	}
	if !s3.State().Terminal() {
		t.Error("recovered must be a terminal state")
	}

	// Skipped: not registered, but its history is still queryable.
	if _, err := reg.Get("s0004"); err == nil {
		t.Error("undecodable session was registered")
	}

	// Totals were seeded: monotone across the restart.
	if tot := reg.Totals(); tot.SessionsCreated < 4 || tot.ProbesSent < 100 {
		t.Errorf("totals not restored: %+v", tot)
	}

	// New ids allocate above the recovered ones.
	s5, err := reg.Create(SessionConfig{Scenario: "idle", Slots: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if s5.ID != "s0005" {
		t.Errorf("next id %s, want s0005", s5.ID)
	}
	waitTerminal(t, s5, 10*time.Second)
}

// TestDeleteReleasesHistory: deleting a session trims its in-memory
// series to the newest point, so the store's live points stay at one per
// deleted session however many sessions finish, while the WAL keeps
// every point: a reopen restores each session with its full history.
func TestDeleteReleasesHistory(t *testing.T) {
	const sessions, points = 300, 8
	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(Config{MaxConcurrent: 1, Store: st})
	reg.runOverride = func(ctx context.Context, s *Session, seed int64) error {
		for i := 1; i <= points; i++ {
			var snap estimate.Snapshot
			snap.Total = badabing.Estimates{M: i, Frequency: float64(i) / 100}
			s.publish(snap, int64(i)*100, SessionCounters{ProbesSent: int64(i), Experiments: int64(i)})
		}
		return nil
	}
	want := make(map[string][]store.Point)
	for i := 0; i < sessions; i++ {
		s, err := reg.Create(SessionConfig{Scenario: "idle", Slots: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if state := waitTerminal(t, s, 10*time.Second); state != Done {
			t.Fatalf("session %s state %v, want done", s.ID, state)
		}
		want[s.ID], _ = st.History(s.ID, time.Time{}, time.Time{})
		if err := reg.Delete(s.ID); err != nil {
			t.Fatal(err)
		}
		if got := st.Stats().Points; got != i+1 {
			t.Fatalf("after %d deletes the store holds %d points, want one per deleted session", i+1, got)
		}
		last, _ := st.History(s.ID, time.Time{}, time.Time{})
		if len(last) != 1 || last[0] != want[s.ID][len(want[s.ID])-1] {
			t.Fatalf("%s kept %+v, want only its newest point", s.ID, last)
		}
	}
	reg.Close()

	st2, info, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Sessions) != sessions {
		t.Fatalf("reopen found %d sessions, want %d", len(info.Sessions), sessions)
	}
	for _, rec := range info.Sessions {
		full := want[rec.ID]
		if rec.Points != len(full) || rec.LastPoint != full[len(full)-1] || rec.State != "done" {
			t.Errorf("%s reopened with %d points, last %+v, state %s; want %d, %+v, done",
				rec.ID, rec.Points, rec.LastPoint, rec.State, len(full), full[len(full)-1])
		}
		if hist, _ := st2.History(rec.ID, time.Time{}, time.Time{}); !reflect.DeepEqual(hist, full) {
			t.Errorf("%s history after reopen differs from before its delete", rec.ID)
		}
	}
	reg2 := NewRegistry(Config{MaxSessions: sessions, Store: st2})
	defer reg2.Close()
	if sum := reg2.Restore(info); sum.Terminal != sessions {
		t.Errorf("restore summary %+v, want %d terminal", sum, sessions)
	}
}
