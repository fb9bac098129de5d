//go:build !race

// Allocation and recovery-speed pins for the durable archive. The WAL's
// steady-state write is one recPoint per publish interval per session;
// the encode must stay off the allocator so a large fleet doesn't turn
// its persistence layer into GC pressure. Gated from -race because the
// race runtime adds its own allocations.
package store

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestEncodePointZeroAlloc pins the hot-path point encode at zero heap
// allocations once the scratch buffer has warmed up.
func TestEncodePointZeroAlloc(t *testing.T) {
	s, _ := openT(t, Options{Dir: t.TempDir(), Fsync: FsyncNever})
	defer s.Close()
	p := testPoint(time.Now().UnixNano(), 3)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.encodePointLocked("s0001", p) // warm the scratch buffer
	if avg := testing.AllocsPerRun(500, func() {
		s.encodePointLocked("s0001", p)
	}); avg != 0 {
		t.Errorf("encodePointLocked allocates %.2f times per run, want 0", avg)
	}
}

// TestSessionPointAllocBound pins the full append path (encode + frame
// + segment write + in-memory series) under one amortized allocation
// per record: only the points slice's geometric growth may allocate.
func TestSessionPointAllocBound(t *testing.T) {
	s, _ := openT(t, Options{Dir: t.TempDir(), Fsync: FsyncNever})
	defer s.Close()
	at := time.Unix(6000, 0).UnixNano()
	s.SessionPoint("s0001", testPoint(at, 0))
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		i++
		s.SessionPoint("s0001", testPoint(at+int64(i)*int64(time.Second), i))
	}); avg > 1 {
		t.Errorf("SessionPoint allocates %.2f times per run, want <= 1 amortized", avg)
	}
}

// TestRecoverySpeed replays a 100k-record log and requires recovery to
// finish in under a second (the acceptance bound; on CI-class hardware
// it is typically tens of milliseconds).
func TestRecoverySpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-record log build")
	}
	dir := t.TempDir()
	s, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever})
	base := time.Unix(7000, 0)
	const sessions = 10
	const perSession = 10_000 // 100k records total
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = string(rune('a'+i)) + "-sess"
		s.SessionCreated(ids[i], base, []byte(`{"scenario":"idle"}`), int64(i+1))
	}
	for n := 1; n < perSession; n++ {
		at := base.Add(time.Duration(n) * time.Second).UnixNano()
		for _, id := range ids {
			s.SessionPoint(id, testPoint(at, n))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	s2, info := openT(t, Options{Dir: dir, Fsync: FsyncNever})
	elapsed := time.Since(start)
	defer s2.Close()
	if info.Records < sessions*perSession {
		t.Fatalf("replayed %d records, want >= %d", info.Records, sessions*perSession)
	}
	if elapsed > time.Second {
		t.Errorf("recovery of %d records took %v, want < 1s", info.Records, elapsed)
	}
	t.Logf("recovered %d records from %d segments in %v", info.Records, info.Segments, elapsed)
}

// TestReplaySizesSeries pins replay's memory traffic: each session's
// series is sized once from the segment's point count instead of growing
// one append at a time, so replaying an archive allocates little beyond
// the segment bytes and the points themselves.
func TestReplaySizesSeries(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever})
	ids := []string{"s0001", "s0002", "s0003"}
	const perSession = 1000
	want := make(map[string][]Point)
	base := time.Unix(8000, 0)
	for n := 1; n <= perSession; n++ {
		for k, id := range ids {
			p := testPoint(base.Add(time.Duration(n)*time.Second).UnixNano(), n+k)
			want[id] = append(want[id], p)
			s.SessionPoint(id, p)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	fi, err := os.Stat(filepath.Join(dir, segName(segs[0])))
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever})
	runtime.ReadMemStats(&after)
	defer s2.Close()
	points := int64(len(ids)*perSession) * int64(unsafe.Sizeof(Point{}))
	budget := fi.Size() + points*5/4 + 64<<10
	got := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("replay allocated %d B (segment %d B, points %d B, budget %d B)", got, fi.Size(), points, budget)
	if got > budget {
		t.Errorf("replaying %d B of segment with %d B of points allocated %d B, want <= %d",
			fi.Size(), points, got, budget)
	}
	for _, id := range ids {
		if hist, _ := s2.History(id, time.Time{}, time.Time{}); !reflect.DeepEqual(hist, want[id]) {
			t.Errorf("%s: replayed history differs from what was written", id)
		}
	}
}
