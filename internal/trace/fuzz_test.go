package trace

import (
	"bytes"
	"testing"
	"time"
)

// FuzzTraceAnalyze feeds arbitrary bytes to Analyze. It must never panic,
// and on every trace it accepts the episodes must be sorted, disjoint and
// forward in time, with a congestion frequency in [0, 1].
func FuzzTraceAnalyze(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{BitsPerSec: 8_000_000, QueueCap: 10_000})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []Record{
		{T: time.Millisecond, Event: Arrive, Size: 1000, QueueBytes: 9500},
		{T: time.Millisecond, Event: Drop, Size: 1000},
		{T: 2 * time.Millisecond, Event: Depart, Size: 1000, QueueBytes: 8500},
		{T: 50 * time.Millisecond, Event: Arrive, Size: 1000, QueueBytes: 9800},
		{T: 50 * time.Millisecond, Event: Drop, Size: 1000},
	} {
		if err := w.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		sum, err := Analyze(r)
		if err != nil {
			return
		}
		eps := sum.Episodes()
		for i, e := range eps {
			if e.End < e.Start {
				t.Fatalf("episode %d ends before it starts: %+v", i, e)
			}
			if i > 0 && e.Start <= eps[i-1].End {
				t.Fatalf("episode %d %+v overlaps or precedes %+v", i, e, eps[i-1])
			}
		}
		const slot = 5 * time.Millisecond
		if tr := sum.Truth((sum.Span/slot+1)*slot, slot); tr.Frequency < 0 || tr.Frequency > 1 {
			t.Fatalf("frequency %v outside [0, 1]", tr.Frequency)
		}
	})
}
