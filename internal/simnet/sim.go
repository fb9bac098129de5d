// Package simnet provides a discrete-event packet network simulator.
//
// The simulator stands in for the laboratory testbed used in the paper
// "Improving Accuracy in End-to-end Packet Loss Measurement" (SIGCOMM 2005):
// bandwidth-limited links with propagation delay and finite drop-tail FIFO
// queues, connected between traffic sources and sinks. Simulated time is
// represented as a time.Duration offset from the start of the simulation,
// giving nanosecond resolution — finer than the microsecond-synchronized
// DAG capture cards used for ground truth in the paper.
//
// # Event core
//
// Every event carries an order key (at, seq): its virtual time and a
// sequence number taken from one counter at the moment the event is
// scheduled. Events run in ascending key order, so equal-time events run
// in the order they were scheduled.
//
// The queue is a binary heap of pointer-free {at, seq, id} entries; id
// names a record that says how to dispatch the event (its kind) and on
// what. Recurring event sources keep at most one entry on the heap each:
//
//   - a Timer (NewTimer) is one entry, re-keyed in place by Reset;
//   - a Link's transmitter is one transmit-complete entry, and its
//     propagation delay line — departed packets in flight, delivered in
//     departure order after a fixed delay — keeps only its head queued;
//   - a stream (ScheduleEach) reserves the sequence numbers of all its
//     events when created and keeps only its next event queued.
//
// Each source's pending events are already sorted by key, and a source's
// next event is queued when its previous one runs, before any later key
// can run. The heap is therefore a k-way merge of sorted sources and pops
// the same key sequence as a heap holding every event individually.
// Schedule and ScheduleAt remain for one-off callbacks.
package simnet

import (
	"fmt"
	"time"
)

// evKind selects how a queued entry is dispatched.
type evKind uint8

const (
	evFunc    evKind = iota // one-off Schedule/ScheduleAt callback
	evTimer                 // a Timer's single entry
	evTx                    // a link's transmit-complete
	evDeliver               // the head of a link's delay line
	evSend                  // a Link.SendAt packet
	evStream                // the next event of a ScheduleEach stream
)

// entry is one heap element. It holds no pointers, so heap moves need no
// GC write barriers.
type entry struct {
	at  time.Duration
	seq uint64
	id  int32 // index into Sim.recs
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// record is the dispatch target of one queued entry. Records are recycled
// through a free list, so a steady event load allocates none.
type record struct {
	pos  int32 // index of the entry in Sim.heap
	kind evKind
	fn   func()  // evFunc
	t    *Timer  // evTimer
	l    *Link   // evTx, evDeliver, evSend
	pkt  *Packet // evSend
	st   *stream // evStream
}

// Sim is a discrete-event simulator. The zero value is not usable; create
// one with New. Sim is not safe for concurrent use: all events run on the
// goroutine that calls Run.
type Sim struct {
	now     time.Duration
	seq     uint64
	heap    []entry
	recs    []record
	free    []int32 // recycled record ids
	pending int
	nextID  uint64
}

// New returns an empty simulator positioned at time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// NextPacketID returns a fresh packet identifier, unique within this Sim.
func (s *Sim) NextPacketID() uint64 {
	s.nextID++
	return s.nextID
}

// Schedule runs fn after delay of virtual time. A negative delay is an
// error in the caller; Schedule panics to surface it immediately.
func (s *Sim) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("simnet: negative delay %v", delay))
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at, which must not be in
// the past.
func (s *Sim) ScheduleAt(at time.Duration, fn func()) {
	s.checkAt(at)
	s.recs[s.enqueue(at, evFunc)].fn = fn
}

func (s *Sim) checkAt(at time.Duration) {
	if at < s.now {
		panic(fmt.Sprintf("simnet: schedule at %v before now %v", at, s.now))
	}
}

// enqueue takes the next sequence number and queues a fresh record of the
// given kind at time at, returning the record's id for the caller to fill
// in the dispatch target.
func (s *Sim) enqueue(at time.Duration, kind evKind) int32 {
	s.seq++
	s.pending++
	id := s.alloc(kind)
	s.push(entry{at: at, seq: s.seq, id: id})
	return id
}

func (s *Sim) push(e entry) {
	s.heap = append(s.heap, e)
	s.up(len(s.heap) - 1)
}

func (s *Sim) alloc(kind evKind) int32 {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = int32(len(s.recs))
		s.recs = append(s.recs, record{})
	}
	s.recs[id].kind = kind
	return id
}

func (s *Sim) release(id int32) {
	s.recs[id] = record{}
	s.free = append(s.free, id)
}

// Run executes events in time order until the event queue is empty or the
// next event is after the until horizon. The clock is left at the time of
// the last executed event, or at until if it is later.
func (s *Sim) Run(until time.Duration) {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if top.at > until {
			break
		}
		s.now = top.at
		s.pending--
		r := &s.recs[top.id]
		// Copy the target out before dispatch: handlers schedule
		// events, which may grow s.recs.
		switch r.kind {
		case evFunc:
			fn := r.fn
			s.popTop(top.id)
			fn()
		case evTimer:
			t := r.t
			t.id = -1
			s.popTop(top.id)
			t.fn()
		case evTx:
			l := r.l
			s.popTop(top.id)
			l.txDone()
		case evDeliver:
			r.l.deliverHead(top.id)
		case evSend:
			l, p := r.l, r.pkt
			s.popTop(top.id)
			l.Send(p)
		case evStream:
			r.st.step(s, top)
		}
	}
	if s.now < until {
		s.now = until
	}
}

// popTop removes the heap's top entry and recycles its record.
func (s *Sim) popTop(id int32) {
	s.removeAt(0)
	s.release(id)
}

// rekeyTop gives the top entry a later key and restores heap order.
func (s *Sim) rekeyTop(at time.Duration, seq uint64) {
	s.heap[0].at, s.heap[0].seq = at, seq
	s.down(0)
}

// Pending reports the number of scheduled events not yet run: callbacks,
// armed timers, packets in transmission, in flight on a delay line or
// waiting for SendAt, and the remaining events of every stream.
func (s *Sim) Pending() int { return s.pending }

func (s *Sim) up(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		s.recs[h[i].id].pos = int32(i)
		i = p
	}
	h[i] = e
	s.recs[e.id].pos = int32(i)
}

// down sifts the entry at i toward the leaves and reports whether it
// moved.
func (s *Sim) down(i int) bool {
	h := s.heap
	n := len(h)
	i0 := i
	e := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		s.recs[h[i].id].pos = int32(i)
		i = c
	}
	h[i] = e
	s.recs[e.id].pos = int32(i)
	return i > i0
}

// fix restores heap order after the entry at i changed key.
func (s *Sim) fix(i int) {
	if !s.down(i) {
		s.up(i)
	}
}

func (s *Sim) removeAt(i int) {
	n := len(s.heap) - 1
	if i != n {
		s.heap[i] = s.heap[n]
		s.heap = s.heap[:n]
		s.fix(i)
		return
	}
	s.heap = s.heap[:n]
}

// Timer is a re-armable one-shot event: at most one pending firing, kept
// as a single heap entry that Reset moves in place. Create one with
// NewTimer; the zero value is not usable.
type Timer struct {
	sim *Sim
	fn  func()
	id  int32 // record id while armed, -1 otherwise
}

// NewTimer returns a stopped timer that runs fn each time it fires.
func (s *Sim) NewTimer(fn func()) *Timer {
	return &Timer{sim: s, fn: fn, id: -1}
}

// Reset arms the timer to fire after delay d, replacing any pending
// firing. Like Schedule, it takes a fresh sequence number, so the firing
// is ordered after every event already scheduled for the same time.
func (t *Timer) Reset(d time.Duration) {
	s := t.sim
	if d < 0 {
		panic(fmt.Sprintf("simnet: negative delay %v", d))
	}
	at := s.now + d
	if t.id < 0 {
		t.id = s.enqueue(at, evTimer)
		s.recs[t.id].t = t
		return
	}
	s.seq++
	i := int(s.recs[t.id].pos)
	s.heap[i].at, s.heap[i].seq = at, s.seq
	s.fix(i)
}

// Stop cancels the pending firing, if any, and reports whether there was
// one.
func (t *Timer) Stop() bool {
	if t.id < 0 {
		return false
	}
	s := t.sim
	s.removeAt(int(s.recs[t.id].pos))
	s.release(t.id)
	s.pending--
	t.id = -1
	return true
}

// Armed reports whether the timer has a pending firing.
func (t *Timer) Armed() bool { return t.id >= 0 }

// stream is the state of one ScheduleEach batch.
type stream struct {
	at   func(i int) time.Duration
	fn   func(i int)
	n    int
	next int    // index of the queued event
	seq0 uint64 // sequence number of event 0
}

// ScheduleEach schedules n events, the i-th running fn(i) at virtual time
// at(i). It orders the events exactly as n calls ScheduleAt(at(i), ...)
// made now for i = 0, 1, …, n-1 would — all n sequence numbers are
// reserved by this call — but keeps one heap entry for the whole batch.
// at must be a pure, nondecreasing function of i with at(0) >= Now(); it
// is evaluated one event ahead, as the batch advances.
func (s *Sim) ScheduleEach(n int, at func(i int) time.Duration, fn func(i int)) {
	if n <= 0 {
		return
	}
	t0 := at(0)
	s.checkAt(t0)
	st := &stream{at: at, fn: fn, n: n, seq0: s.seq + 1}
	s.recs[s.enqueue(t0, evStream)].st = st
	// enqueue took event 0's number; reserve the rest.
	s.seq += uint64(n - 1)
	s.pending += n - 1
}

// step runs the stream's queued event, first re-keying its heap entry (at
// the top, key top) to the next event or retiring the stream.
func (st *stream) step(s *Sim, top entry) {
	i, fn := st.next, st.fn
	st.next++
	if st.next < st.n {
		at := st.at(st.next)
		if at < top.at {
			panic(fmt.Sprintf("simnet: ScheduleEach event %d at %v precedes event %d at %v", st.next, at, i, top.at))
		}
		s.rekeyTop(at, st.seq0+uint64(st.next))
	} else {
		s.popTop(top.id)
	}
	fn(i)
}
