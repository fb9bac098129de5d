package simnet

import (
	"container/heap"
	"time"
)

// This file keeps the original event engine as a test-only reference: a
// container/heap of *event, each carrying a closure, with timers as
// generation-checked closures, streams and packet trains as one
// ScheduleAt per event and links scheduling a closure per transmit and
// per delivery. The
// differential test (eventorder_test.go) drives it and the real engine
// with the same random programs and requires identical traces.

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refSim struct {
	now    time.Duration
	seq    uint64
	events refHeap
	nextID uint64
}

func (s *refSim) Now() time.Duration { return s.now }

func (s *refSim) NextPacketID() uint64 { s.nextID++; return s.nextID }

func (s *refSim) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		panic("refsim: negative delay")
	}
	s.ScheduleAt(s.now+delay, fn)
}

func (s *refSim) ScheduleAt(at time.Duration, fn func()) {
	if at < s.now {
		panic("refsim: schedule in the past")
	}
	s.seq++
	heap.Push(&s.events, &refEvent{at: at, seq: s.seq, fn: fn})
}

func (s *refSim) Run(until time.Duration) {
	for len(s.events) > 0 {
		next := s.events[0]
		if next.at > until {
			break
		}
		heap.Pop(&s.events)
		s.now = next.at
		next.fn()
	}
	if s.now < until {
		s.now = until
	}
}

// ScheduleEach is n ScheduleAt calls made now.
func (s *refSim) ScheduleEach(n int, at func(int) time.Duration, fn func(int)) {
	for i := 0; i < n; i++ {
		i := i
		s.ScheduleAt(at(i), func() { fn(i) })
	}
}

// refTimer cancels stale firings with a generation counter; they stay
// queued and run as no-ops.
type refTimer struct {
	s     *refSim
	fn    func()
	gen   uint64
	armed bool
}

func (s *refSim) NewTimer(fn func()) eventTimer { return &refTimer{s: s, fn: fn} }

func (t *refTimer) Reset(d time.Duration) {
	t.gen++
	gen := t.gen
	t.armed = true
	t.s.Schedule(d, func() {
		if gen == t.gen {
			t.armed = false
			t.fn()
		}
	})
}

func (t *refTimer) Stop() bool {
	was := t.armed
	t.armed = false
	t.gen++
	return was
}

func (t *refTimer) Armed() bool { return t.armed }

// refLink is the original closure-per-event link (drop-tail, no AQM).
type refLink struct {
	sim      *refSim
	rate     Rate
	delay    time.Duration
	queueCap int
	dst      Receiver

	busy   bool
	qbytes int
	q      []Packet
	taps   []Tap

	arrived, dropped, delivered uint64
}

func (s *refSim) NewLink(rate Rate, delay time.Duration, queueCap int, dst Receiver) eventLink {
	return &refLink{sim: s, rate: rate, delay: delay, queueCap: queueCap, dst: dst}
}

func (l *refLink) AddTap(t Tap) { l.taps = append(l.taps, t) }

func (l *refLink) Stats() (arrived, dropped, delivered uint64) {
	return l.arrived, l.dropped, l.delivered
}

func (l *refLink) Send(p Packet) {
	now := l.sim.Now()
	l.arrived++
	for _, t := range l.taps {
		t.Arrive(now, &p, l.qbytes)
	}
	if l.busy && l.qbytes+p.Size > l.queueCap {
		l.dropped++
		for _, t := range l.taps {
			t.Dropped(now, &p, DropQueueFull)
		}
		return
	}
	l.qbytes += p.Size
	l.q = append(l.q, p)
	if !l.busy {
		l.busy = true
		l.transmit(l.pop())
	}
}

func (l *refLink) SendAt(at time.Duration, p Packet) {
	l.sim.Schedule(at-l.sim.Now(), func() { l.Send(p) })
}

// SendTrain is n ScheduleAt calls made now, each sending one packet.
func (l *refLink) SendTrain(p Packet, n int, gap time.Duration) {
	start := l.sim.Now()
	for i := 0; i < n; i++ {
		i := i
		l.sim.ScheduleAt(start+time.Duration(i)*gap, func() {
			q := p
			q.Seq += int64(i)
			q.ID = l.sim.NextPacketID()
			q.Sent = l.sim.Now()
			l.Send(q)
		})
	}
}

func (l *refLink) pop() Packet {
	p := l.q[0]
	l.q = l.q[1:]
	return p
}

func (l *refLink) transmit(p Packet) {
	l.sim.Schedule(l.rate.TxTime(p.Size), func() {
		l.qbytes -= p.Size
		l.delivered++
		now := l.sim.Now()
		for _, t := range l.taps {
			t.Depart(now, &p, l.qbytes)
		}
		l.sim.Schedule(l.delay, func() { l.dst.Deliver(p) })
		if len(l.q) > 0 {
			l.transmit(l.pop())
		} else {
			l.busy = false
		}
	})
}
