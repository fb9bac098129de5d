package wire

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"badabing/internal/stats"
)

func TestZingHeaderRoundTrip(t *testing.T) {
	h := ZingHeader{ExpID: 7, Seq: 12345, SendTime: time.Now().UnixNano()}
	buf := make([]byte, ZingHeaderSize)
	if _, err := h.Marshal(buf); err != nil {
		t.Fatal(err)
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

// feed records seqs 0..n-1 except those in lost, spaced 100 ms apart.
func feed(c *ZingCollector, expID uint64, n int, lost map[int]bool) {
	for i := 0; i < n; i++ {
		if lost[i] {
			continue
		}
		c.Record(&ZingHeader{
			ExpID:    expID,
			Seq:      uint64(i),
			SendTime: int64(i) * int64(100*time.Millisecond),
		})
	}
}

func TestZingCollectorNoLoss(t *testing.T) {
	c := NewZingCollector()
	feed(c, 1, 100, nil)
	rep, err := c.Report(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 || rep.Frequency != 0 || rep.Duration.N() != 0 {
		t.Fatalf("loss reported on clean stream: %+v", rep)
	}
}

func TestZingCollectorIsolatedLosses(t *testing.T) {
	c := NewZingCollector()
	feed(c, 1, 100, map[int]bool{10: true, 50: true, 90: true})
	rep, err := c.Report(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 3 {
		t.Fatalf("lost = %d, want 3", rep.Lost)
	}
	if rep.Frequency != 0.03 {
		t.Fatalf("frequency = %v, want 0.03", rep.Frequency)
	}
	// Isolated losses have zero duration (no consecutive losses).
	if rep.Duration.Mean() != 0 {
		t.Fatalf("duration mean = %v, want 0 for isolated losses", rep.Duration.Mean())
	}
	if rep.Duration.N() != 3 {
		t.Fatalf("runs = %d, want 3", rep.Duration.N())
	}
}

func TestZingCollectorConsecutiveRun(t *testing.T) {
	c := NewZingCollector()
	// Probes 20..24 lost: a 5-probe run. Bracketing received probes are
	// 19 (at 1.9s) and 25 (at 2.5s): span 600 ms over 6 intervals, run
	// duration = 600ms × 4/6 = 400 ms.
	lost := map[int]bool{20: true, 21: true, 22: true, 23: true, 24: true}
	feed(c, 1, 100, lost)
	rep, err := c.Report(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 5 {
		t.Fatalf("lost = %d, want 5", rep.Lost)
	}
	if rep.Duration.N() != 1 {
		t.Fatalf("runs = %d, want 1", rep.Duration.N())
	}
	if got, want := rep.Duration.Mean(), 0.4; abs(got-want) > 1e-9 {
		t.Fatalf("run duration = %v, want %v", got, want)
	}
}

func TestZingCollectorTrailingLoss(t *testing.T) {
	c := NewZingCollector()
	feed(c, 1, 100, map[int]bool{98: true, 99: true})
	// Without totalSent the collector can only infer 98 probes
	// (seq 0..97); with it, the trailing losses are counted.
	repInferred, _ := c.Report(1, 0)
	if repInferred.Lost != 0 {
		t.Fatalf("inferred lost = %d, want 0 (trailing losses invisible)", repInferred.Lost)
	}
	rep, _ := c.Report(1, 100)
	if rep.Lost != 2 {
		t.Fatalf("lost = %d, want 2 with totalSent", rep.Lost)
	}
}

func TestZingCollectorUnknownSession(t *testing.T) {
	c := NewZingCollector()
	if _, err := c.Report(5, 0); err != ErrUnknownSession {
		t.Fatalf("err = %v, want ErrUnknownSession", err)
	}
}

func TestZingCollectorSessions(t *testing.T) {
	c := NewZingCollector()
	feed(c, 3, 5, nil)
	feed(c, 1, 5, nil)
	ids := c.Sessions()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("sessions = %v, want [1 3]", ids)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestZingSendPacesDrawnEpochs: at 200 Hz for 1 s over loopback the
// sender emits exactly the drawn epochs before 1 s, and none of them
// leaves ahead of its epoch.
func TestZingSendPacesDrawnEpochs(t *testing.T) {
	const rate, seed, dur = 200.0, 7, time.Second
	rng := rand.New(rand.NewSource(seed))
	mean := time.Duration(float64(time.Second) / rate)
	var epochs []time.Duration
	for at := stats.Exp(rng, mean); at < dur; at += stats.Exp(rng, mean) {
		epochs = append(epochs, at)
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
	sent, err := ZingSend(context.Background(), conn, ZingSenderConfig{ExpID: 1, Rate: rate, Duration: dur, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the last probes land
	pc.Close()
	<-done
	if sent != uint64(len(epochs)) {
		t.Fatalf("sent %d probes, the schedule draws %d before %v", sent, len(epochs), dur)
	}
	if len(got) == 0 {
		t.Fatal("no probe arrived")
	}
	for _, h := range got {
		if h.Seq >= uint64(len(epochs)) {
			t.Fatalf("probe %d beyond the %d drawn epochs", h.Seq, len(epochs))
		}
		if epoch := before.Add(epochs[h.Seq]).UnixNano(); h.SendTime < epoch {
			t.Errorf("probe %d left %v ahead of its epoch", h.Seq, time.Duration(epoch-h.SendTime))
		}
	}
}

// TestZingCollectorExpire: Expire drops the sessions idle for at least
// maxIdle and keeps the rest.
func TestZingCollectorExpire(t *testing.T) {
	c := NewZingCollector()
	feed(c, 1, 5, nil)
	time.Sleep(200 * time.Millisecond)
	feed(c, 2, 5, nil)
	if n := c.Expire(100 * time.Millisecond); n != 1 {
		t.Fatalf("Expire removed %d sessions, want 1", n)
	}
	if ids := c.Sessions(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("sessions = %v, want [2]", ids)
	}
	if _, err := c.Report(1, 0); err != ErrUnknownSession {
		t.Fatalf("expired session reports err %v, want ErrUnknownSession", err)
	}
}
