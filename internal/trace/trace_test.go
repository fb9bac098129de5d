package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"badabing/internal/capture"
	"badabing/internal/simnet"
	"badabing/internal/traffic"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{BitsPerSec: 155_520_000, QueueCap: 1_944_000})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{T: time.Millisecond, Event: Arrive, Kind: 0, Flow: 7, ID: 1, Size: 1500, Seq: 42, QueueBytes: 3000},
		{T: 2 * time.Millisecond, Event: Drop, Kind: 2, Flow: 9, ID: 2, Size: 600, Seq: -1},
		{T: 3 * time.Millisecond, Event: Depart, Kind: 1, Flow: 7, ID: 1, Size: 40, Seq: 0, QueueBytes: 1500},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header.BitsPerSec != 155_520_000 || r.Header.QueueCap != 1_944_000 {
		t.Fatalf("header mismatch: %+v", r.Header)
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(tNanos int64, ev uint8, kind uint8, flow, id uint64, size uint32, seq int64, q uint32) bool {
		if tNanos < 0 {
			tNanos = -tNanos
		}
		rec := Record{
			T: time.Duration(tNanos), Event: Event(ev % 3), Kind: kind,
			Flow: flow, ID: id, Size: size, Seq: seq, QueueBytes: q,
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{})
		if err != nil {
			return false
		}
		if err := w.Write(rec); err != nil {
			return false
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Next()
		return err == nil && got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("short header accepted")
	}
	bad := make([]byte, headerSize)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Error("zero magic accepted")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{})
	w.Write(Record{T: time.Second})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-5] // chop mid-record
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("truncated record: err = %v, want io.EOF", err)
	}
}

func TestEventString(t *testing.T) {
	for ev, want := range map[Event]string{Arrive: "arrive", Depart: "depart", Drop: "drop", Event(9): "unknown"} {
		if got := ev.String(); got != want {
			t.Errorf("Event(%d) = %q, want %q", ev, got, want)
		}
	}
}

// traceScenario runs one cross-traffic path to its horizon plus a drain
// second with both a live capture monitor and a trace tap on the
// bottleneck, and returns the trace bytes, the monitor and the horizon.
func traceScenario(t *testing.T, path string) (*bytes.Buffer, *capture.Monitor, time.Duration) {
	t.Helper()
	sim := simnet.New()
	d := simnet.NewDumbbell(sim, simnet.DumbbellConfig{})
	mon := capture.Attach(sim, d.Bottleneck, capture.Config{})
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{
		BitsPerSec: int64(d.Bottleneck.Rate()),
		QueueCap:   uint32(d.Bottleneck.QueueCap()),
	})
	if err != nil {
		t.Fatal(err)
	}
	tap := AttachTap(d.Bottleneck, w)
	ids := traffic.NewIDSpace(1000)
	horizon := 15 * time.Second
	switch path {
	case "cbr":
		traffic.NewEpisodeInjector(sim, d, ids, traffic.EpisodeInjectorConfig{
			MeanSpacing:     8 * time.Second,
			Overload:        4,
			BaseUtilization: 0.25,
			Seed:            3,
		})
		horizon = 120 * time.Second
	case "web":
		traffic.NewWeb(sim, d, ids, traffic.WebConfig{Seed: 1})
		horizon = 60 * time.Second
	case "red":
		d.Bottleneck.SetAQM(simnet.REDForLink(d.Bottleneck, 0.25, 0.75, 0.1, 1))
		fallthrough
	case "tcp":
		traffic.NewInfiniteTCP(sim, d, ids, 40)
	default:
		t.Fatalf("unknown path %q", path)
	}
	sim.Run(horizon + time.Second)
	if err := tap.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf, mon, horizon
}

// TestOfflineAnalysisMatchesLiveCapture replays each path's trace and
// wants exactly the live monitor's ground truth: the same episode list,
// and at the same horizon and a 5 ms slot, the same bits in every Truth
// field.
func TestOfflineAnalysisMatchesLiveCapture(t *testing.T) {
	for _, path := range []string{"cbr", "web", "tcp", "red"} {
		t.Run(path, func(t *testing.T) {
			buf, mon, horizon := traceScenario(t, path)
			r, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			sum, err := Analyze(r)
			if err != nil {
				t.Fatal(err)
			}
			live, off := mon.Episodes(), sum.Episodes()
			if len(live) == 0 {
				t.Fatal("no loss episodes on this path")
			}
			if !reflect.DeepEqual(off, live) {
				t.Fatalf("offline episodes differ from live capture:\n%v\n%v", off, live)
			}
			t.Logf("%d records, %d episodes", sum.Records, len(live))
			slot := 5 * time.Millisecond
			if lt, ot := truthBits(mon.Truth(horizon, slot)), truthBits(sum.Truth(horizon, slot)); lt != ot {
				t.Errorf("offline truth %v, live %v", ot, lt)
			}
			if sum.PeakQueue == 0 {
				t.Error("no queue occupancy recorded")
			}
		})
	}
}

// truthBits renders every Truth field exactly, floats as their bits.
func truthBits(tr capture.Truth) string {
	bits := func(fs ...float64) []uint64 {
		var out []uint64
		for _, f := range fs {
			out = append(out, math.Float64bits(f))
		}
		return out
	}
	d := tr.Duration
	return fmt.Sprintf("F %x D(n=%d) %x episodes %d rate %x loss %x slot %v",
		bits(tr.Frequency), d.N(), bits(d.Mean(), d.StdDev(), d.Min(), d.Max()),
		tr.Episodes, bits(tr.EpisodeRate), bits(tr.LossRate), tr.Slot)
}

// TestDropResetsLowWaterToArrivalOccupancy pins the episode rule's reset
// on the live path and on the offline path alike: a drop at half
// capacity restarts the low-water tracker from half capacity, so when
// the queue then refills above the high-water mark and drops again 40 ms
// later (beyond MaxGap), the second drop starts a new episode.
func TestDropResetsLowWaterToArrivalOccupancy(t *testing.T) {
	sim := simnet.New()
	// 8 Mb/s: a 1000 B packet leaves every millisecond.
	l := simnet.NewLink(sim, simnet.Rate(8_000_000), 0, 10_000, simnet.ReceiverFunc(func(*simnet.Packet) {}))
	mon := capture.Attach(sim, l, capture.Config{})
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{BitsPerSec: 8_000_000, QueueCap: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	tap := AttachTap(l, w)
	send := func(at time.Duration, size int) {
		sim.ScheduleAt(at, func() { l.Send(&simnet.Packet{ID: sim.NextPacketID(), Size: size}) })
	}
	for i := 0; i < 5; i++ {
		send(0, 1000) // 5000 B queued
	}
	send(0, 6000) // dropped at half capacity
	for i := 0; i < 5; i++ {
		send(0, 1000) // full
	}
	// Refill each departure half a packet time later: every departure
	// leaves 9000 B, at the high-water mark.
	const half = 500 * time.Microsecond
	for at := time.Millisecond + half; at < 40*time.Millisecond; at += time.Millisecond {
		send(at, 1000)
	}
	send(40*time.Millisecond+half, 2000) // dropped at 9000 B queued
	sim.Run(time.Second)
	if err := tap.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Analyze(r)
	if err != nil {
		t.Fatal(err)
	}
	for name, eps := range map[string][]capture.Episode{"live": mon.Episodes(), "offline": sum.Episodes()} {
		if len(eps) != 2 {
			t.Errorf("%s: %d episodes %v, want 2", name, len(eps), eps)
		}
	}
}

// TestAnalyzeRejectsBadRecords: a record whose time runs backwards or
// whose event is unknown is an error naming its index.
func TestAnalyzeRejectsBadRecords(t *testing.T) {
	for name, bad := range map[string]Record{
		"backwards": {T: time.Millisecond, Event: Drop},
		"unknown":   {T: 3 * time.Millisecond, Event: Event(7)},
	} {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, Header{QueueCap: 10_000})
		w.Write(Record{T: time.Millisecond, Event: Arrive, QueueBytes: 9000})
		w.Write(Record{T: 2 * time.Millisecond, Event: Drop})
		w.Write(bad)
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(r); err == nil || !strings.Contains(err.Error(), "record 2") {
			t.Errorf("%s: err = %v, want an error naming record 2", name, err)
		}
	}
}

func TestMatchLossAgreesWithDropRecords(t *testing.T) {
	buf, _, _ := traceScenario(t, "cbr")
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	dropIDs := map[uint64]bool{}
	for _, rec := range recs {
		if rec.Event == Drop {
			dropIDs[rec.ID] = true
		}
	}
	lost := MatchLoss(recs, recs)
	// Packets still queued when the capture ends look lost to trace
	// differencing — the same boundary effect a real DAG analysis has.
	// Allow a handful of those, but never fewer than the true drops.
	extra := len(lost) - len(dropIDs)
	if extra < 0 || extra > 5 {
		t.Fatalf("trace differencing found %d lost packets, drop records say %d",
			len(lost), len(dropIDs))
	}
	inferred := map[uint64]bool{}
	for _, id := range lost {
		inferred[id] = true
	}
	for id := range dropIDs {
		if !inferred[id] {
			t.Fatalf("dropped packet %d not inferred lost", id)
		}
	}
}
