package wire

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"syscall"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/lab"
	"badabing/internal/probe"
	"badabing/internal/session"
)

// TestZingHeaderRoundTrip: a header decodes to what was encoded, and
// encodes to the pinned bytes of the wire format.
func TestZingHeaderRoundTrip(t *testing.T) {
	h := ZingHeader{ExpID: 7, Seq: 12345, SendTime: 1700000000123456789,
		Draw: probe.ZingConfig{Seed: -9, Mean: 50 * time.Millisecond, Duration: 900 * time.Second}}
	buf := make([]byte, ZingHeaderSize)
	if _, err := h.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	const want = "5a494e47020000000000000000070000000000003039179" +
		"79cfe3d85cd15fffffffffffffff70000000002faf080000000d18c2e2800"
	if got := hex.EncodeToString(buf); got != want {
		t.Fatalf("header encodes to\n%s, want\n%s", got, want)
	}
	var got ZingHeader
	if err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
}

func TestZingHeaderRejects(t *testing.T) {
	var h ZingHeader
	if err := h.Unmarshal(make([]byte, 5)); err == nil {
		t.Error("short packet accepted")
	}
	if err := h.Unmarshal(make([]byte, ZingHeaderSize)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := h.Marshal(make([]byte, 3)); err == nil {
		t.Error("short buffer accepted")
	}
}

// testDraw is the epoch draw the collector tests send: about 120 probes
// at a 100 ms mean gap.
var testDraw = probe.ZingConfig{Seed: 3, Mean: 100 * time.Millisecond, Duration: 12 * time.Second}

func testEpochs(t *testing.T) []time.Duration {
	t.Helper()
	epochs, err := testDraw.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) < 91 {
		t.Fatalf("test draw holds %d probes, the tests lose probe 90", len(epochs))
	}
	return epochs
}

// feed records every drawn probe of session expID except those in lost,
// as if the session started at start and each probe spent 10 ms in
// flight.
func feed(c *ZingCollector, expID uint64, epochs []time.Duration, start time.Time, lost map[int]bool) {
	for i, e := range epochs {
		if lost[i] {
			continue
		}
		h := ZingHeader{ExpID: expID, Seq: uint64(i), SendTime: start.Add(e).UnixNano(), Draw: testDraw}
		c.Record(&h, start.Add(e+10*time.Millisecond))
	}
}

// past is a session start long enough ago that every probe is due.
func past() time.Time { return time.Now().Add(-time.Hour) }

func TestZingCollectorNoLoss(t *testing.T) {
	epochs := testEpochs(t)
	c := NewZingCollector()
	feed(c, 1, epochs, past(), nil)
	rep, err := c.Report(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != len(epochs) || rep.Lost != 0 || rep.Frequency != 0 || rep.Duration.N() != 0 {
		t.Fatalf("clean stream of %d probes reported %+v", len(epochs), rep)
	}
}

func TestZingCollectorIsolatedLosses(t *testing.T) {
	epochs := testEpochs(t)
	c := NewZingCollector()
	feed(c, 1, epochs, past(), map[int]bool{10: true, 50: true, 90: true})
	rep, err := c.Report(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 3 {
		t.Fatalf("lost = %d, want 3", rep.Lost)
	}
	if want := 3 / float64(len(epochs)); rep.Frequency != want {
		t.Fatalf("frequency = %v, want %v", rep.Frequency, want)
	}
	// An isolated loss is a run spanning no time (§4.2).
	if rep.Duration.N() != 3 || rep.Duration.Mean() != 0 {
		t.Fatalf("%d runs of mean %v s, want 3 of 0", rep.Duration.N(), rep.Duration.Mean())
	}
}

// TestZingCollectorConsecutiveRun: a run's duration is the span of its
// lost probes' drawn epochs.
func TestZingCollectorConsecutiveRun(t *testing.T) {
	epochs := testEpochs(t)
	c := NewZingCollector()
	feed(c, 1, epochs, past(), map[int]bool{20: true, 21: true, 22: true, 23: true, 24: true})
	rep, err := c.Report(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 5 || rep.Duration.N() != 1 {
		t.Fatalf("lost %d in %d runs, want 5 in 1", rep.Lost, rep.Duration.N())
	}
	if got, want := rep.Duration.Mean(), (epochs[24] - epochs[20]).Seconds(); got != want {
		t.Fatalf("run duration = %v, want %v", got, want)
	}
}

// TestZingCollectorTrailingLoss: the last two probes are lost. While the
// sender could still be sending them they are not due; once their
// epochs have passed they count.
func TestZingCollectorTrailingLoss(t *testing.T) {
	epochs := testEpochs(t)
	n := len(epochs)
	lost := map[int]bool{n - 2: true, n - 1: true}

	c := NewZingCollector()
	// Probe n-3 arrives now: the sender is only now reaching its epoch.
	feed(c, 1, epochs, time.Now().Add(-epochs[n-3]-10*time.Millisecond), lost)
	if rep, _ := c.Report(1); rep.Probes != n-2 || rep.Lost != 0 {
		t.Fatalf("before the last epochs: %d probes, %d lost; want %d, 0", rep.Probes, rep.Lost, n-2)
	}
	c = NewZingCollector()
	feed(c, 1, epochs, past(), lost)
	if rep, _ := c.Report(1); rep.Probes != n || rep.Lost != 2 {
		t.Fatalf("after the last epochs: %d probes, %d lost; want %d, 2", rep.Probes, rep.Lost, n)
	}
}

// TestZingCollectorStraySequence: one packet with a sequence number far
// beyond the draw does not buy probes.
func TestZingCollectorStraySequence(t *testing.T) {
	draw := testDraw
	draw.Duration = time.Hour
	long, err := draw.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	draw.Duration = long[99] + 1 // exactly 100 probes
	epochs, err := draw.Epochs()
	if err != nil || len(epochs) != 100 {
		t.Fatalf("draw holds %d probes (%v), want 100", len(epochs), err)
	}
	c := NewZingCollector()
	start := past()
	for i, e := range epochs {
		c.Record(&ZingHeader{ExpID: 1, Seq: uint64(i), Draw: draw}, start.Add(e))
	}
	c.Record(&ZingHeader{ExpID: 1, Seq: 1<<63 + 5, Draw: draw}, time.Now())
	rep, err := c.Report(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 100 || rep.Lost != 0 || rep.Frequency != 0 {
		t.Fatalf("100 clean probes and a stray reported %d probes, %d lost, F = %v", rep.Probes, rep.Lost, rep.Frequency)
	}
}

// TestZingCollectorRejectsBadDraws: a header whose draw Epochs refuses
// makes its session unreportable instead of costing an unbounded draw.
func TestZingCollectorRejectsBadDraws(t *testing.T) {
	for _, draw := range []probe.ZingConfig{
		{Seed: 1, Mean: 0, Duration: time.Second},
		{Seed: 1, Mean: time.Millisecond, Duration: 0},
		{Seed: 1, Mean: time.Nanosecond, Duration: badabing.MaxSlots + 1},
	} {
		c := NewZingCollector()
		c.Record(&ZingHeader{ExpID: 1, Draw: draw}, time.Now())
		if rep, err := c.Report(1); err == nil {
			t.Errorf("draw %+v reported %+v, want an error", draw, rep)
		}
	}
}

func TestZingCollectorUnknownSession(t *testing.T) {
	c := NewZingCollector()
	if _, err := c.Report(5); err != ErrUnknownSession {
		t.Fatalf("err = %v, want ErrUnknownSession", err)
	}
}

func TestZingCollectorSessions(t *testing.T) {
	epochs := testEpochs(t)[:5]
	c := NewZingCollector()
	feed(c, 3, epochs, past(), nil)
	feed(c, 1, epochs, past(), nil)
	ids := c.Sessions()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("sessions = %v, want [1 3]", ids)
	}
}

// TestZingSimLiveParity: the live collector, fed one header per probe the
// simulated prober delivered, reports exactly what the simulated prober
// does, once every probe is due.
func TestZingSimLiveParity(t *testing.T) {
	const horizon = 60 * time.Second
	runs := 0 // cells whose simulated prober saw a loss run
	for _, sc := range []lab.Scenario{lab.CBRUniform, lab.Web} {
		for _, spec := range []struct {
			mean time.Duration
			size int
		}{{100 * time.Millisecond, 256}, {50 * time.Millisecond, 64}} {
			for _, seed := range []int64{1, 2} {
				t.Run(fmt.Sprintf("%v/%v/seed=%d", sc, spec.mean, seed), func(t *testing.T) {
					p := lab.NewPath(sc, lab.RunConfig{Horizon: horizon, Seed: seed})
					draw := probe.ZingConfig{Mean: spec.mean, Duration: horizon, Seed: seed}
					z := probe.StartZing(p.Sim, p.D, 7, spec.size, draw)
					p.Run(horizon)
					sim := z.Report()

					c := NewZingCollector()
					start := past()
					for i, o := range z.Results() {
						if o.Lost > 0 {
							continue
						}
						h := ZingHeader{ExpID: 1, Seq: uint64(i), SendTime: start.Add(o.T).UnixNano(), Draw: draw}
						c.Record(&h, start.Add(o.T+o.OWD))
					}
					live, err := c.Report(1)
					if err != nil {
						t.Fatal(err)
					}
					if sim.Duration.N() > 0 {
						runs++
					}
					if live.Probes != sim.Probes || live.Lost != sim.Lost ||
						math.Float64bits(live.Frequency) != math.Float64bits(sim.Frequency) ||
						live.Duration.N() != sim.Duration.N() ||
						math.Float64bits(live.Duration.Mean()) != math.Float64bits(sim.Duration.Mean()) ||
						math.Float64bits(live.Duration.StdDev()) != math.Float64bits(sim.Duration.StdDev()) {
						t.Fatalf("live report diverges from the simulated prober's:\nlive %d probes, %d lost, F %v, %d runs, µ %v, σ %v\n sim %d probes, %d lost, F %v, %d runs, µ %v, σ %v",
							live.Probes, live.Lost, live.Frequency, live.Duration.N(), live.Duration.Mean(), live.Duration.StdDev(),
							sim.Probes, sim.Lost, sim.Frequency, sim.Duration.N(), sim.Duration.Mean(), sim.Duration.StdDev())
					}
				})
			}
		}
	}
	if runs < 4 {
		t.Errorf("only %d of 8 cells saw a loss run: parity barely exercised", runs)
	}
}

// TestZingSendPacesDrawnEpochs: at 200 Hz for 1 s over loopback the
// sender emits exactly the drawn epochs, each header carries the draw,
// and no probe leaves ahead of its epoch.
func TestZingSendPacesDrawnEpochs(t *testing.T) {
	draw := probe.ZingConfig{Mean: 5 * time.Millisecond, Duration: time.Second, Seed: 7}
	epochs, err := draw.Epochs()
	if err != nil {
		t.Fatal(err)
	}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var got []ZingHeader
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 512)
		for {
			n, _, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			var h ZingHeader
			if h.Unmarshal(buf[:n]) == nil {
				got = append(got, h)
			}
		}
	}()

	before := time.Now()
	st, err := ZingSend(context.Background(), conn, 1, 256, draw)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the last probes land
	pc.Close()
	<-done
	if st.Probes != len(epochs) || st.Packets != len(epochs) {
		t.Fatalf("sent %d of %d probes, the schedule draws %d before %v", st.Packets, st.Probes, len(epochs), draw.Duration)
	}
	if len(got) == 0 {
		t.Fatal("no probe arrived")
	}
	for _, h := range got {
		if h.Draw != draw {
			t.Fatalf("probe %d carries draw %+v, want %+v", h.Seq, h.Draw, draw)
		}
		if h.Seq >= uint64(len(epochs)) {
			t.Fatalf("probe %d beyond the %d drawn epochs", h.Seq, len(epochs))
		}
		if epoch := before.Add(epochs[h.Seq]).UnixNano(); h.SendTime < epoch {
			t.Errorf("probe %d left %v ahead of its epoch", h.Seq, time.Duration(epoch-h.SendTime))
		}
	}
}

// TestZingSendRejectsLongDraw: the sender refuses a draw the collector
// would refuse, before sending anything.
func TestZingSendRejectsLongDraw(t *testing.T) {
	if _, err := ZingSend(context.Background(), nil, 1, 256, probe.ZingConfig{Mean: time.Nanosecond, Duration: time.Hour, Seed: 1}); err == nil {
		t.Fatal("a draw of 3.6e12 probes was accepted")
	}
}

// TestZingSendKeepsPacingPastRefusedWrites: sent to a closed loopback
// port, where the kernel refuses about every other write, a 1 s draw at
// 200 Hz sends every drawn epoch, counting the refused writes.
func TestZingSendKeepsPacingPastRefusedWrites(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	draw := probe.ZingConfig{Mean: 5 * time.Millisecond, Duration: time.Second, Seed: 7}
	epochs, err := draw.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ZingSend(context.Background(), conn, 1, 256, draw)
	if err != nil {
		t.Fatalf("ZingSend to a closed port: %v after %d probes, %d refused", err, st.Packets, st.WriteFailures)
	}
	if st.Packets+st.WriteFailures != len(epochs) || st.DeadSlot != -1 {
		t.Fatalf("%d probes written and %d refused (dead slot %d), want %d in all and no dead slot",
			st.Packets, st.WriteFailures, st.DeadSlot, len(epochs))
	}
	t.Logf("%d of %d writes refused", st.WriteFailures, len(epochs))
}

// deadConn is a connected socket whose every write is refused.
type deadConn struct{ rejectConn }

func (c *deadConn) Write([]byte) (int, error) {
	c.writes++
	return 0, syscall.ECONNREFUSED
}

// TestZingSendDeclaresDeadPath: when every write is refused, ZingSend
// gives up with ErrPathDead after exactly maxConsecutiveWriteFailures
// writes, and names the first probe of the run.
func TestZingSendDeclaresDeadPath(t *testing.T) {
	conn := &deadConn{}
	draw := probe.ZingConfig{Mean: time.Millisecond, Duration: 100 * time.Millisecond, Seed: 7}
	st, err := ZingSend(context.Background(), conn, 1, 256, draw)
	if !errors.Is(err, session.ErrPathDead) {
		t.Fatalf("ZingSend returned %v, want ErrPathDead", err)
	}
	if conn.writes != maxConsecutiveWriteFailures || st.WriteFailures != maxConsecutiveWriteFailures ||
		st.Packets != 0 || st.DeadSlot != 0 {
		t.Fatalf("%d writes, stats %+v; want %d refused writes from probe 0", conn.writes, st, maxConsecutiveWriteFailures)
	}
}

// TestZingCollectorExpire: Expire drops the sessions idle for at least
// maxIdle and keeps the rest.
func TestZingCollectorExpire(t *testing.T) {
	epochs := testEpochs(t)[:5]
	c := NewZingCollector()
	feed(c, 1, epochs, past(), nil)
	feed(c, 2, epochs, time.Now().Add(-epochs[4]-10*time.Millisecond), nil)
	if n := c.Expire(100 * time.Millisecond); n != 1 {
		t.Fatalf("Expire removed %d sessions, want 1", n)
	}
	if ids := c.Sessions(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("sessions = %v, want [2]", ids)
	}
	if _, err := c.Report(1); err != ErrUnknownSession {
		t.Fatalf("expired session reports err %v, want ErrUnknownSession", err)
	}
}
