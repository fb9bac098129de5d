package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// eventEngine is the surface the differential programs drive: the real
// Sim (through simEngine) or the closure-per-event reference (refSim).
type eventEngine interface {
	Now() time.Duration
	NextPacketID() uint64
	ScheduleAt(at time.Duration, fn func())
	ScheduleEach(n int, at func(int) time.Duration, fn func(int))
	NewTimer(fn func()) eventTimer
	NewLink(rate Rate, delay time.Duration, queueCap int, dst Receiver) eventLink
	Run(until time.Duration)
}

type eventTimer interface {
	Reset(d time.Duration)
	Stop() bool
	Armed() bool
}

type eventLink interface {
	Send(p Packet)
	SendAt(at time.Duration, p Packet)
	SendTrain(p Packet, n int, gap time.Duration)
	AddTap(t Tap)
	Stats() (arrived, dropped, delivered uint64)
}

type simEngine struct{ *Sim }

func (e simEngine) NewTimer(fn func()) eventTimer { return e.Sim.NewTimer(fn) }

func (e simEngine) NewLink(rate Rate, delay time.Duration, queueCap int, dst Receiver) eventLink {
	return NewLink(e.Sim, rate, delay, queueCap, dst)
}

type traceEv struct {
	at   time.Duration
	what string
}

// coverage counts the event-core paths a program exercised.
type coverage struct {
	earlier, later, stops, streams, sendAts, trains, backToBack, drops, ties int
}

// orderProgram is a seeded random program over a dumbbell: timers that
// reset (earlier and later) and stop each other, one-off callbacks,
// streams with equal-time steps, and packets sent now, later or in
// trains into a drop-tail bottleneck whose deliveries trigger ACKs on the
// reverse link. Bursts and trains keep the bottleneck busy, so its
// transmitter often moves straight from one packet to the next.
// Every callback draws its next actions from the program's RNG, so two
// engines produce the same trace only if they run the same events in the
// same order at the same times.
type orderProgram struct {
	e        eventEngine
	rng      *rand.Rand
	budget   int
	trace    []traceEv
	timers   []eventTimer
	deadline []time.Duration
	fwd, rev eventLink
	tags     int
	seq      int64
	cov      coverage
}

const orderFlows = 3

func newOrderProgram(e eventEngine, seed int64, budget int) *orderProgram {
	p := &orderProgram{e: e, rng: rand.New(rand.NewSource(seed)), budget: budget}
	fwdDemux, revDemux := NewDemux(), NewDemux()
	// 8 Mb/s: the packet sizes below serialize in whole multiples of
	// 100 µs, the grid most delays are drawn on, so keys often tie.
	p.fwd = e.NewLink(Rate(8_000_000), time.Millisecond, 3000, fwdDemux)
	p.rev = e.NewLink(Rate(8_000_000), 700*time.Microsecond, 100_000, revDemux)
	p.fwd.AddTap(orderTap{p})
	for f := uint64(1); f <= orderFlows; f++ {
		fwdDemux.Register(f, ReceiverFunc(func(pkt Packet) {
			p.log("deliver f%d #%d id%d", pkt.Flow, pkt.Seq, pkt.ID)
			if p.rng.Intn(2) == 0 {
				p.rev.Send(Packet{ID: p.e.NextPacketID(), Flow: pkt.Flow, Kind: Ack, Size: 100, Seq: pkt.Seq, Sent: p.e.Now()})
			}
		}))
		revDemux.Register(f, ReceiverFunc(func(pkt Packet) {
			p.log("ack f%d #%d", pkt.Flow, pkt.Seq)
			p.act()
		}))
	}
	for k := 0; k < 5; k++ {
		k := k
		p.timers = append(p.timers, e.NewTimer(func() {
			p.log("timer %d", k)
			p.act()
			if k == 0 && p.budget > 0 && !p.timers[0].Armed() {
				p.reset(0) // a heartbeat, so no program dies out early
			}
		}))
		p.deadline = append(p.deadline, 0)
	}
	for k := range p.timers {
		p.reset(k)
	}
	return p
}

func (p *orderProgram) log(format string, args ...any) {
	now := p.e.Now()
	if n := len(p.trace); n > 0 && p.trace[n-1].at == now {
		p.cov.ties++
	}
	p.trace = append(p.trace, traceEv{now, fmt.Sprintf(format, args...)})
}

// delay draws mostly from a coarse 100 µs grid so that many events share
// a timestamp.
func (p *orderProgram) delay() time.Duration {
	switch p.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return time.Duration(p.rng.Intn(4)) * 100 * time.Microsecond
	case 2:
		return time.Duration(p.rng.Intn(40)) * 100 * time.Microsecond
	default:
		return time.Duration(p.rng.Int63n(int64(5 * time.Millisecond)))
	}
}

func (p *orderProgram) reset(k int) {
	now, d := p.e.Now(), p.delay()
	if p.timers[k].Armed() {
		switch at := now + d; {
		case at < p.deadline[k]:
			p.cov.earlier++
		case at > p.deadline[k]:
			p.cov.later++
		}
	}
	p.deadline[k] = now + d
	p.timers[k].Reset(d)
}

func (p *orderProgram) packet() Packet {
	sizes := [...]int{100, 500, 1000}
	p.seq++
	return Packet{
		ID:   p.e.NextPacketID(),
		Flow: uint64(1 + p.rng.Intn(orderFlows)),
		Size: sizes[p.rng.Intn(len(sizes))],
		Seq:  p.seq,
		Sent: p.e.Now(),
	}
}

// act performs one to three random actions while budget remains.
func (p *orderProgram) act() {
	for n := 1 + p.rng.Intn(3); n > 0 && p.budget > 0; n-- {
		p.budget--
		now := p.e.Now()
		switch p.rng.Intn(10) {
		case 0, 1:
			p.reset(p.rng.Intn(len(p.timers)))
		case 2:
			if p.timers[p.rng.Intn(len(p.timers))].Stop() {
				p.cov.stops++
			}
		case 3:
			tag := p.tags
			p.tags++
			p.e.ScheduleAt(now+p.delay(), func() {
				p.log("func %d", tag)
				p.act()
			})
		case 4:
			p.stream()
		case 5:
			p.fwd.Send(p.packet())
		case 6:
			p.cov.sendAts++
			p.fwd.SendAt(now+p.delay(), p.packet())
		case 7:
			for i := 0; i < 4; i++ { // a burst, to fill the queue
				p.fwd.Send(p.packet())
			}
		case 8:
			p.train(p.delay())
		case 9:
			// Back to back: each packet arrives as the one before
			// it finishes serializing, tying with its transmit.
			p.train(0)
		}
	}
}

// train sends 1–6 packets gap apart, or, for a zero gap, one packet's
// serialization time apart.
func (p *orderProgram) train(gap time.Duration) {
	p.cov.trains++
	pkt := p.packet()
	if gap == 0 {
		gap = Rate(8_000_000).TxTime(pkt.Size)
	}
	n := 1 + p.rng.Intn(6)
	p.seq += int64(n - 1) // the train's packets take Seq pkt.Seq…p.seq
	p.fwd.SendTrain(pkt, n, gap)
}

// stream schedules a batch whose times are nondecreasing with frequent
// repeats; even steps send a packet, odd steps act.
func (p *orderProgram) stream() {
	tag := p.tags
	p.tags++
	p.cov.streams++
	n := 1 + p.rng.Intn(6)
	at := make([]time.Duration, n)
	at[0] = p.e.Now() + p.delay()
	for i := 1; i < n; i++ {
		at[i] = at[i-1]
		if p.rng.Intn(2) == 0 {
			at[i] += time.Duration(p.rng.Intn(3)) * 100 * time.Microsecond
		}
	}
	p.e.ScheduleEach(n, func(i int) time.Duration { return at[i] }, func(i int) {
		p.log("stream %d/%d", tag, i)
		if i%2 == 0 {
			p.fwd.Send(p.packet())
		} else {
			p.act()
		}
	})
}

type orderTap struct{ p *orderProgram }

func (t orderTap) Arrive(_ time.Duration, pkt *Packet, q int) {
	t.p.log("arrive id%d q%d", pkt.ID, q)
}

func (t orderTap) Dropped(_ time.Duration, pkt *Packet, _ Drop) {
	t.p.cov.drops++
	t.p.log("drop id%d", pkt.ID)
}

func (t orderTap) Depart(_ time.Duration, pkt *Packet, q int) {
	if q > 0 {
		t.p.cov.backToBack++ // the next packet starts at once
	}
	t.p.log("depart id%d q%d", pkt.ID, q)
}

// run drives the program to quiescence in uneven horizon chunks, logging
// the clock after each, then the bottleneck counters.
func (p *orderProgram) run() []traceEv {
	for _, until := range []time.Duration{0, 3 * time.Millisecond, 3 * time.Millisecond, 20 * time.Millisecond, 150 * time.Millisecond, time.Hour} {
		p.e.Run(until)
		p.log("run %v", until)
	}
	a, d, v := p.fwd.Stats()
	p.log("stats %d %d %d", a, d, v)
	return p.trace
}

func TestEventOrderMatchesReference(t *testing.T) {
	var cov coverage
	for seed := int64(1); seed <= 60; seed++ {
		want := newOrderProgram(&refSim{}, seed, 3000).run()
		prog := newOrderProgram(simEngine{New()}, seed, 3000)
		got := prog.run()
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d is %v at %v, reference ran %v at %v",
					seed, i, got[i].what, got[i].at, want[i].what, want[i].at)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events, reference ran %d", seed, len(got), len(want))
		}
		if prog.budget != 0 {
			t.Errorf("seed %d: program died out with %d actions unspent", seed, prog.budget)
		}
		c := prog.cov
		cov.earlier += c.earlier
		cov.later += c.later
		cov.stops += c.stops
		cov.streams += c.streams
		cov.sendAts += c.sendAts
		cov.trains += c.trains
		cov.backToBack += c.backToBack
		cov.drops += c.drops
		cov.ties += c.ties
	}
	// The programs must actually exercise what they claim to.
	for name, n := range map[string]int{
		"resets to earlier": cov.earlier, "resets to later": cov.later, "stops": cov.stops,
		"streams": cov.streams, "SendAt": cov.sendAts, "trains": cov.trains,
		"back-to-back transmits": cov.backToBack, "drops": cov.drops, "equal-time events": cov.ties,
	} {
		if n < 50 {
			t.Errorf("programs exercised only %d %s", n, name)
		}
	}
}

// TestEventOrderPendingDrains checks Pending's accounting: every kind of
// event counts while queued, and the count returns to zero once all have
// run.
func TestEventOrderPendingDrains(t *testing.T) {
	s := New()
	dst := &collect{sim: s}
	l := NewLink(s, Rate(8_000_000), time.Millisecond, 100_000, dst)
	tm := s.NewTimer(func() {})
	stopped := s.NewTimer(func() {})
	tm.Reset(time.Millisecond)
	stopped.Reset(time.Millisecond)
	stopped.Stop()
	s.Schedule(0, func() {})
	s.ScheduleEach(4, func(i int) time.Duration { return time.Duration(i) * time.Microsecond }, func(int) {})
	l.SendAt(time.Microsecond, mkpkt(s, 1000))
	l.SendTrain(mkpkt(s, 100), 3, 0)
	if got, want := s.pending, 1+1+4+1+3; got != want {
		t.Fatalf("pending = %d, want %d", got, want)
	}
	// The train's three packets leave by 0.3 ms and arrive by 1.3 ms;
	// the SendAt packet queues behind them and departs at 1.3 ms.
	s.Run(1500 * time.Microsecond)
	if got := s.pending; got != 1 || len(dst.pkts) != 3 {
		t.Fatalf("pending = %d, delivered %d with one packet on the delay line; want 1, 3", got, len(dst.pkts))
	}
	s.Run(time.Second)
	if got := s.pending; got != 0 || len(dst.pkts) != 4 {
		t.Fatalf("pending = %d, delivered %d after draining; want 0, 4", got, len(dst.pkts))
	}
}

func TestTimerResetMovesFiring(t *testing.T) {
	s := New()
	var fired []time.Duration
	tm := s.NewTimer(func() { fired = append(fired, s.Now()) })
	tm.Reset(10 * time.Millisecond)
	tm.Reset(30 * time.Millisecond) // later
	tm.Reset(20 * time.Millisecond) // earlier again
	if !tm.Armed() {
		t.Fatal("reset timer not armed")
	}
	s.Run(time.Second)
	if len(fired) != 1 || fired[0] != 20*time.Millisecond {
		t.Fatalf("fired at %v, want once at 20ms", fired)
	}
	if tm.Armed() || tm.Stop() {
		t.Fatal("fired timer still armed")
	}
	tm.Reset(0)
	if !tm.Stop() {
		t.Fatal("Stop of an armed timer returned false")
	}
	s.Run(2 * time.Second)
	if len(fired) != 1 {
		t.Fatalf("stopped timer fired: %v", fired)
	}
}

// A reset timer is ordered after events already scheduled for the same
// instant, like a fresh Schedule call.
func TestTimerResetTakesFreshSequence(t *testing.T) {
	s := New()
	var order []string
	tm := s.NewTimer(func() { order = append(order, "timer") })
	tm.Reset(time.Millisecond)
	s.Schedule(time.Millisecond, func() { order = append(order, "func") })
	tm.Reset(time.Millisecond)
	s.Run(time.Second)
	if fmt.Sprint(order) != "[func timer]" {
		t.Fatalf("order %v, want [func timer]", order)
	}
}

// Stream events interleave with other events exactly as if each had been
// scheduled individually when the stream was created.
func TestScheduleEachInterleaves(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(time.Millisecond, func() { order = append(order, "before") })
	s.ScheduleEach(3, func(i int) time.Duration { return time.Millisecond * time.Duration(i/2+1) }, func(i int) {
		order = append(order, fmt.Sprintf("s%d", i))
	})
	s.Schedule(time.Millisecond, func() { order = append(order, "after") })
	s.Run(time.Second)
	if got := fmt.Sprint(order); got != "[before s0 s1 after s2]" {
		t.Fatalf("order %v", got)
	}
}

func TestScheduleEachRejectsDecreasingTimes(t *testing.T) {
	s := New()
	s.ScheduleEach(2, func(i int) time.Duration { return time.Duration(2-i) * time.Millisecond }, func(int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing stream times did not panic")
		}
	}()
	s.Run(time.Second)
}

func TestScheduleEachPastPanics(t *testing.T) {
	s := New()
	s.Run(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("stream starting in the past did not panic")
		}
	}()
	s.ScheduleEach(1, func(int) time.Duration { return 0 }, func(int) {})
}

// Property: random interleavings of one-off events, streams and timer
// resets always run in nondecreasing time.
func TestEventOrderTimeMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	var times []time.Duration
	rec := func() { times = append(times, s.Now()) }
	timers := make([]*Timer, 8)
	for i := range timers {
		timers[i] = s.NewTimer(rec)
	}
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.Intn(1000)) * time.Microsecond
		switch rng.Intn(3) {
		case 0:
			s.Schedule(d, rec)
		case 1:
			timers[rng.Intn(len(timers))].Reset(d)
		case 2:
			s.ScheduleEach(3, func(i int) time.Duration { return d + time.Duration(i) }, func(int) { rec() })
		}
	}
	s.Run(time.Hour)
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Fatal("events ran out of time order")
	}
	if s.pending != 0 {
		t.Fatalf("pending = %d after draining", s.pending)
	}
}
