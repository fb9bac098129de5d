package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory for the traced run and writes them out
// when the benchmark ends. A nil *tracer is the untraced run: every
// method is a no-op behind one nil check, so the untraced workloads pay
// nothing for the instrumentation sites.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// span is one timed call from the benchmark into a layer. Spans of one
// operation (a lab round, a daemon session cycle, a wire session) share
// Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the count recorded at the boundary (packets, records, probes),
	// when the span has one.
	N int64 `json:"n,omitempty"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span. The zero value (from a nil tracer) ends as a
// no-op.
type spanRef struct {
	t     *tracer
	id    uint64
	par   uint64
	trace uint64
	name  string
	start int64
}

// begin opens a span under parent; a zero parent starts a new trace.
func (t *tracer) begin(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.ids.Add(1)
	trace := parent.trace
	if parent.id == 0 {
		trace = id
	}
	return spanRef{t: t, id: id, par: parent.id, trace: trace, name: name, start: int64(time.Since(t.epoch))}
}

// end closes the span with no count.
func (s spanRef) end() { s.endN(0) }

// endN closes the span, recording n at its boundary.
func (s spanRef) endN(n int64) {
	if s.t == nil {
		return
	}
	s.t.add(span{ID: s.id, Parent: s.par, Trace: s.trace, Name: s.name,
		Start: s.start, End: int64(time.Since(s.t.epoch)), N: n})
}

// record adds a span measured elsewhere (a runner cell reports its own
// elapsed time when it completes).
func (t *tracer) record(name string, parent spanRef, start, end time.Time, n int64) {
	if t == nil {
		return
	}
	id := t.ids.Add(1)
	trace := parent.trace
	if parent.id == 0 {
		trace = id
	}
	t.add(span{ID: id, Parent: parent.id, Trace: trace, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), N: n})
}

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	N       int64   `json:"n"`
}

// summarize totals duration and self time per span name. A span's self
// time is its duration minus the part of it that its children cover.
func (t *tracer) summarize() []spanSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[uint64][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	byName := make(map[string]*spanSummary)
	for _, sp := range spans {
		s := byName[sp.Name]
		if s == nil {
			s = &spanSummary{Name: sp.Name}
			byName[sp.Name] = s
		}
		dur := sp.End - sp.Start
		s.Count++
		s.TotalMs += float64(dur) / 1e6
		s.SelfMs += float64(dur-covered(sp, children[sp.ID])) / 1e6
		s.N += sp.N
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers (children clipped to the parent).
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// write stores every span as one JSON line in path and the per-name
// summary next to it (path + ".summary.json").
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sum, err := json.MarshalIndent(t.summarize(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path+".summary.json", sum, 0o644)
}

// printSummary renders the per-name span table.
func (t *tracer) printSummary(w io.Writer) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "n")
	for _, s := range t.summarize() {
		fmt.Fprintf(w, "%-28s %8d %12.2f %12.2f %12d\n", s.Name, s.Count, s.TotalMs, s.SelfMs, s.N)
	}
}
