package simnet

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestSimRunsEventsInOrder(t *testing.T) {
	s := New()
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 10, 40} {
		d := d
		s.Schedule(d, func() { got = append(got, s.Now()) })
	}
	s.Run(time.Hour)
	want := []time.Duration{10, 10, 20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSimEqualTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events ran out of schedule order: %v", order)
		}
	}
}

func TestSimRunHorizon(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(10*time.Millisecond, func() { ran = true })
	s.Run(5 * time.Millisecond)
	if ran {
		t.Fatal("event past horizon ran")
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("clock = %v, want 5ms", s.Now())
	}
	if s.pending != 1 {
		t.Fatalf("pending = %d, want 1", s.pending)
	}
	s.Run(time.Second)
	if !ran {
		t.Fatal("event not run after extending horizon")
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := New()
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if ticks < 100 {
			s.Schedule(time.Millisecond, tick)
		}
	}
	s.Schedule(0, tick)
	s.Run(time.Second)
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100", ticks)
	}
	if s.Now() != time.Second {
		t.Fatalf("now = %v, want 1s", s.Now())
	}
}

func TestSimSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(time.Second, func() {})
	s.Run(2 * time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.ScheduleAt(time.Millisecond, func() {})
}

func TestSimNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.Schedule(-1, func() {})
}

func TestPacketIDsUnique(t *testing.T) {
	s := New()
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := s.NextPacketID()
		if seen[id] {
			t.Fatalf("duplicate packet id %d", id)
		}
		seen[id] = true
	}
}

// Property: for any batch of scheduled delays, events execute in
// nondecreasing time order and the clock never goes backwards.
func TestSimTimeMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var times []time.Duration
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Microsecond, func() {
				times = append(times, s.Now())
			})
		}
		s.Run(time.Hour)
		if len(times) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRateTxTime(t *testing.T) {
	cases := []struct {
		rate Rate
		size int
		want time.Duration
	}{
		{Rate(8_000_000), 1000, time.Millisecond},
		{Rate(1_000_000), 125, time.Millisecond},
		{OC3, 0, 0},
	}
	for _, c := range cases {
		if got := c.rate.TxTime(c.size); got != c.want {
			t.Errorf("Rate(%d).TxTime(%d) = %v, want %v", c.rate, c.size, got, c.want)
		}
	}
}

func TestRateBytesRoundTrip(t *testing.T) {
	r := OC3
	for _, d := range []time.Duration{time.Millisecond, 100 * time.Millisecond, time.Second} {
		b := r.Bytes(d)
		back := r.TxTime(b)
		if diff := back - d; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("Bytes/TxTime round trip for %v drifted by %v", d, diff)
		}
	}
}

func TestSimManyEventsRandomOrder(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	count := 0
	for i := 0; i < n; i++ {
		s.Schedule(time.Duration(rng.Intn(1_000_000))*time.Microsecond, func() { count++ })
	}
	s.Run(2 * time.Second)
	if count != n {
		t.Fatalf("ran %d events, want %d", count, n)
	}
}

// An event record names its target by link handle or by its own id in a
// Sim table, so it is 12 bytes and holds nothing the GC must scan:
// recycling one needs no write barrier, and a wider one grows every
// path's setup.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n != 12 {
		t.Errorf("an event record is %d bytes, want 12", n)
	}
	rt := reflect.TypeOf(record{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("record field %s is a %v, which may hold a pointer", f.Name, f.Type)
		}
	}
}
