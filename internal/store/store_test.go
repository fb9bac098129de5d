package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func testPoint(atNs int64, i int) Point {
	return Point{
		At:          atNs,
		SlotsDone:   int64(i) * 1000,
		M:           int64(i) * 10,
		Frequency:   0.01 * float64(i%7),
		Duration:    0.2 * float64(i%5),
		HasDuration: i%2 == 0,
		ProbesSent:  int64(i) * 30,
		ProbesLost:  int64(i),
		PacketsSent: int64(i) * 90,
		PacketsLost: int64(i) * 2,
		Experiments: int64(i) * 10,
	}
}

func openT(t *testing.T, opts Options) (*Store, RecoveryInfo) {
	t.Helper()
	s, info, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, info
}

// TestRoundTrip: everything appended before a clean close is replayed
// exactly on reopen — sessions, estimate series, registry totals.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := time.Now()

	s, info := openT(t, Options{Dir: dir, Fsync: FsyncNever})
	if info.Records != 0 || len(info.Sessions) != 0 {
		t.Fatalf("fresh store has records: %+v", info)
	}
	cfg := []byte(`{"scenario":"cbr","slots":2000}`)
	s.SessionCreated("s0001", base, cfg, 7)
	s.SessionState("s0001", base.Add(time.Second), "running", false, "", 0, 7)
	var points []Point
	for i := 1; i <= 5; i++ {
		p := testPoint(base.Add(time.Duration(i)*time.Second).UnixNano(), i)
		points = append(points, p)
		s.SessionPoint("s0001", p)
	}
	s.SessionState("s0001", base.Add(10*time.Second), "done", true, "", 0, 7)
	tot := Totals{SessionsCreated: 1, SessionsFinished: 1, ProbesSent: 150, PacketsSent: 450}
	s.RegistryTotals(tot)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, info2 := openT(t, Options{Dir: dir, Fsync: FsyncNever})
	defer s2.Close()
	if info2.Records != 9 {
		t.Errorf("replayed %d records, want 9", info2.Records)
	}
	if info2.TornTails != 0 {
		t.Errorf("torn tails on clean close: %d", info2.TornTails)
	}
	if len(info2.Sessions) != 1 {
		t.Fatalf("sessions: %+v", info2.Sessions)
	}
	sess := info2.Sessions[0]
	if sess.ID != "s0001" || sess.State != "done" || !sess.Terminal || sess.Seed != 7 {
		t.Errorf("recovered session %+v", sess)
	}
	if string(sess.ConfigJSON) != string(cfg) {
		t.Errorf("config json %q", sess.ConfigJSON)
	}
	if sess.Points != 5 || !reflect.DeepEqual(sess.LastPoint, points[4]) {
		t.Errorf("points %d last %+v", sess.Points, sess.LastPoint)
	}
	if got := info2.Totals; got != tot {
		t.Errorf("totals %+v want %+v", got, tot)
	}
	hist, ok := s2.History("s0001", time.Time{}, time.Time{})
	if !ok || !reflect.DeepEqual(hist, points) {
		t.Errorf("history %v want %v", hist, points)
	}
}

// TestHistoryRange: from/to filtering is inclusive and zero bounds are
// open.
func TestHistoryRange(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever})
	defer s.Close()
	base := time.Unix(1000, 0)
	for i := 1; i <= 10; i++ {
		s.SessionPoint("x", testPoint(base.Add(time.Duration(i)*time.Second).UnixNano(), i))
	}
	got, ok := s.History("x", base.Add(3*time.Second), base.Add(6*time.Second))
	if !ok || len(got) != 4 {
		t.Fatalf("range query: ok=%v n=%d", ok, len(got))
	}
	if got[0].At != base.Add(3*time.Second).UnixNano() || got[3].At != base.Add(6*time.Second).UnixNano() {
		t.Errorf("bounds wrong: %v", got)
	}
	if _, ok := s.History("nope", time.Time{}, time.Time{}); ok {
		t.Error("unknown session reported ok")
	}

	// Bounds outside the int64-nanosecond range (1678–2262) clamp to it
	// rather than wrapping, in the archive and in the in-memory store.
	m := NewMem()
	for i := 1; i <= 10; i++ {
		m.SessionPoint("x", testPoint(base.Add(time.Duration(i)*time.Second).UnixNano(), i))
	}
	for _, tc := range []struct {
		name     string
		from, to time.Time
		want     int
	}{
		{"to 9999-12-31", time.Time{}, time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC), 10},
		{"from 1600-01-01", time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), time.Time{}, 10},
		{"from 2^40 unix seconds", time.Unix(1<<40, 0), time.Time{}, 0},
	} {
		for _, h := range []interface {
			History(string, time.Time, time.Time) ([]Point, bool)
		}{s, m} {
			if got, _ := h.History("x", tc.from, tc.to); len(got) != tc.want {
				t.Errorf("%T %s: %d points, want %d", h, tc.name, len(got), tc.want)
			}
		}
	}
}

// TestSegmentRotation: a tiny rotation threshold produces many segments
// and replay stitches them back together.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 512})
	base := time.Unix(2000, 0)
	for i := 1; i <= 100; i++ {
		s.SessionPoint("s0001", testPoint(base.Add(time.Duration(i)*time.Second).UnixNano(), i))
	}
	s.Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want several segments, got %v (%v)", segs, err)
	}
	s2, info := openT(t, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 512})
	defer s2.Close()
	if info.Records != 100 {
		t.Errorf("replayed %d records, want 100", info.Records)
	}
	hist, _ := s2.History("s0001", time.Time{}, time.Time{})
	if len(hist) != 100 {
		t.Errorf("history length %d", len(hist))
	}
	if info.Segments != len(segs) {
		t.Errorf("segments %d want %d", info.Segments, len(segs))
	}
}

// TestTornTail: garbage appended to the active segment (a torn write)
// is tolerated on replay, truncated away, and appends continue cleanly.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever})
	base := time.Unix(3000, 0)
	for i := 1; i <= 3; i++ {
		s.SessionPoint("s0001", testPoint(base.Add(time.Duration(i)*time.Second).UnixNano(), i))
	}
	s.Close()

	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// a torn record: plausible header, half a payload
	f.Write([]byte{40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	f.Close()

	s2, info := openT(t, Options{Dir: dir, Fsync: FsyncNever})
	if info.Records != 3 || info.TornTails != 1 {
		t.Fatalf("records %d torn %d, want 3/1", info.Records, info.TornTails)
	}
	// appends continue from the truncated tail
	s2.SessionPoint("s0001", testPoint(base.Add(10*time.Second).UnixNano(), 10))
	s2.Close()

	s3, info3 := openT(t, Options{Dir: dir, Fsync: FsyncNever})
	defer s3.Close()
	if info3.Records != 4 || info3.TornTails != 0 {
		t.Fatalf("after repair: records %d torn %d, want 4/0", info3.Records, info3.TornTails)
	}
	hist, _ := s3.History("s0001", time.Time{}, time.Time{})
	if len(hist) != 4 {
		t.Errorf("history %d want 4", len(hist))
	}
}

// TestRetentionCompaction: segments wholly past the horizon are dropped;
// sessions whose identity lived there are compacted to (or carried
// forward as) a final-summary record that survives restarts.
func TestRetentionCompaction(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	s, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 512,
		Retention: time.Hour, CompactInterval: time.Hour, Now: clock})

	cfgA := []byte(`{"scenario":"idle"}`)
	s.SessionCreated("s0001", now, cfgA, 3)
	for i := 1; i <= 30; i++ {
		s.SessionPoint("s0001", testPoint(now.Add(time.Duration(i)*time.Second).UnixNano(), i))
	}
	s.SessionState("s0001", now.Add(31*time.Second), "done", true, "", 0, 3)
	// a session that will still be running at compaction time
	s.SessionCreated("s0002", now.Add(40*time.Second), []byte(`{"scenario":"cbr","resume":true}`), 4)
	s.SessionState("s0002", now.Add(41*time.Second), "running", false, "", 0, 4)

	// jump past the horizon and generate fresh traffic so old segments
	// seal and age out
	now = now.Add(3 * time.Hour)
	for i := 100; i <= 130; i++ {
		s.SessionPoint("s0002", testPoint(now.Add(time.Duration(i)*time.Second).UnixNano(), i))
	}
	before := s.Stats().Segments
	s.Compact()
	after := s.Stats()
	if after.Segments >= before {
		t.Errorf("segments %d -> %d: nothing dropped", before, after.Segments)
	}
	if after.SegmentsDropped == 0 || after.Compactions == 0 {
		t.Errorf("stats %+v", after)
	}
	s.Close()

	s2, info := openT(t, Options{Dir: dir, Fsync: FsyncNever, Retention: time.Hour, Now: clock})
	defer s2.Close()
	byID := map[string]Session{}
	for _, sess := range info.Sessions {
		byID[sess.ID] = sess
	}
	a, ok := byID["s0001"]
	if !ok || a.State != "done" || !a.Terminal {
		t.Fatalf("compacted terminal session lost: %+v", a)
	}
	if string(a.ConfigJSON) != string(cfgA) || a.Seed != 3 {
		t.Errorf("summary lost identity: %+v", a)
	}
	if a.Points == 0 || a.LastPoint.SlotsDone != 30*1000 {
		t.Errorf("summary lost final estimates: %+v", a.LastPoint)
	}
	b, ok := byID["s0002"]
	if !ok || b.Terminal {
		t.Fatalf("live session lost by compaction: %+v", b)
	}
	if b.Points < 31 {
		t.Errorf("recent points dropped: %d", b.Points)
	}
}

// TestCloseDrops: appends after Close are counted, never a panic or a
// write.
func TestCloseDrops(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Options{Dir: dir})
	s.Close()
	s.SessionPoint("x", testPoint(1, 1))
	s.SessionCreated("x", time.Now(), nil, 0)
	s.SessionState("x", time.Now(), "done", true, "", 0, 0)
	s.RegistryTotals(Totals{})
	if got := s.Stats().DroppedAfterClose; got != 4 {
		t.Errorf("dropped after close = %d, want 4", got)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestFsyncAlways: every append fsyncs, and the fsync counters move.
func TestFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Options{Dir: dir, Fsync: FsyncAlways})
	defer s.Close()
	for i := 1; i <= 3; i++ {
		s.SessionPoint("x", testPoint(int64(i), i))
	}
	st := s.Stats()
	if st.Fsyncs < 3 {
		t.Errorf("fsyncs %d, want >= 3", st.Fsyncs)
	}
	if st.FsyncPolicy != "always" {
		t.Errorf("policy %q", st.FsyncPolicy)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "interval": FsyncInterval, "batch": FsyncInterval,
		"never": FsyncNever, "none": FsyncNever, "": FsyncInterval,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestMemMirrorsStore: the in-memory sink records the same lifecycle the
// durable store does, plus the after-close counter fleet's ordering test
// relies on.
func TestMemMirrorsStore(t *testing.T) {
	m := NewMem()
	at := time.Unix(100, 0)
	m.SessionCreated("s0001", at, []byte(`{}`), 1)
	m.SessionState("s0001", at, "running", false, "", 0, 1)
	m.SessionPoint("s0001", testPoint(at.UnixNano(), 1))
	m.SessionState("s0001", at.Add(time.Second), "done", true, "", 0, 1)
	m.RegistryTotals(Totals{SessionsCreated: 1})
	hist, ok := m.History("s0001", time.Time{}, time.Time{})
	if !ok || len(hist) != 1 {
		t.Fatalf("mem history: %v %v", hist, ok)
	}
	sessions := m.Sessions()
	if len(sessions) != 1 || sessions[0].State != "done" || !sessions[0].Terminal {
		t.Errorf("mem sessions: %+v", sessions)
	}
	if m.Totals().SessionsCreated != 1 {
		t.Errorf("mem totals: %+v", m.Totals())
	}
	m.Close()
	m.SessionPoint("s0001", testPoint(2, 2))
	if m.AfterClose() != 1 {
		t.Errorf("after close = %d", m.AfterClose())
	}
}

// TestWriteErrorsSurface: WAL append failures propagate to the sink
// caller and are counted in Stats — the signal the fleet's store
// circuit breaker trips on, and the alertable silent-loss counter.
func TestWriteErrorsSurface(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Options{Dir: dir, Fsync: FsyncAlways})
	defer s.Close()

	if err := s.SessionCreated("s0001", time.Unix(1, 0), []byte(`{"scenario":"idle"}`), 1); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	if st := s.Stats(); st.WriteErrors != 0 || st.FsyncErrors != 0 {
		t.Fatalf("healthy store reports errors: %+v", st)
	}

	// Kill the disk: every segment write fails persistently. (Closing
	// the fd is not enough any more — the WAL would abandon the segment
	// and heal itself by opening a fresh one on the healthy tempdir.)
	errDead := errors.New("injected: input/output error")
	s.mu.Lock()
	s.w.writeFn = func(f *os.File, b []byte) (int, error) { return 0, errDead }
	s.mu.Unlock()

	if err := s.SessionPoint("s0001", testPoint(2, 1)); err == nil {
		t.Fatal("append on dead file surfaced no error")
	}
	if err := s.SessionState("s0001", time.Unix(3, 0), "done", true, "", 0, 1); err == nil {
		t.Fatal("state append on dead file surfaced no error")
	}
	if err := s.RegistryTotals(Totals{SessionsCreated: 1}); err == nil {
		t.Fatal("totals append on dead file surfaced no error")
	}
	st := s.Stats()
	if st.WriteErrors != 3 {
		t.Errorf("Stats.WriteErrors = %d, want 3", st.WriteErrors)
	}

	// fsync failures are counted separately: force a dirty WAL onto the
	// dead disk.
	s.mu.Lock()
	s.w.syncFn = func(f *os.File) error { return errDead }
	s.w.dirty = true
	err := s.w.fsync()
	s.mu.Unlock()
	if err == nil {
		t.Fatal("fsync on dead file surfaced no error")
	}
	if st := s.Stats(); st.FsyncErrors != 1 {
		t.Errorf("Stats.FsyncErrors = %d, want 1", st.FsyncErrors)
	}

	// The in-memory index kept serving through the outage: the point
	// that failed to persist is still queryable live.
	if pts, ok := s.History("s0001", time.Time{}, time.Time{}); !ok || len(pts) != 1 {
		t.Errorf("live history during outage: ok=%v len=%d, want 1 point", ok, len(pts))
	}
}
