package tcp

import (
	"testing"
	"time"

	"badabing/internal/simnet"
)

// arrivalTap records data-segment arrival order at a link.
type arrivalTap struct{ seqs []int64 }

func (a *arrivalTap) Arrive(_ time.Duration, p *simnet.Packet, _ int) {
	if p.Kind == simnet.Data {
		a.seqs = append(a.seqs, p.Seq)
	}
}
func (a *arrivalTap) Dropped(time.Duration, *simnet.Packet, simnet.Drop) {}
func (a *arrivalTap) Depart(time.Duration, *simnet.Packet, int)          {}

func TestSendJitterPreservesOrder(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	tap := &arrivalTap{}
	d.Bottleneck.AddTap(tap)
	Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{
		TotalBytes: 750_000,
		SendJitter: 500 * time.Microsecond,
	})
	s.Run(time.Minute)
	if len(tap.seqs) == 0 {
		t.Fatal("no segments observed")
	}
	// Clean path, single flow, no retransmissions: arrival order must
	// be exactly sequence order despite per-segment jitter.
	for i := 1; i < len(tap.seqs); i++ {
		if tap.seqs[i] < tap.seqs[i-1] {
			t.Fatalf("jitter reordered segments: %d after %d", tap.seqs[i], tap.seqs[i-1])
		}
	}
}

func TestJitteredFlowCompletes(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	done := false
	f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{
		TotalBytes: 1_500_000,
		SendJitter: 300 * time.Microsecond,
		OnComplete: func() { done = true },
	})
	s.Run(time.Minute)
	if !done {
		t.Fatal("jittered flow did not complete")
	}
	if f.retrans != 0 {
		t.Fatalf("jitter on a clean path caused %d retransmissions", f.retrans)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{
		BottleneckRate: simnet.Rate(20_000_000),
		QueueDuration:  50 * time.Millisecond,
	})
	a := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{SendJitter: 200 * time.Microsecond})
	b := Start(s, 2, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{SendJitter: 200 * time.Microsecond})
	s.Run(2 * time.Minute)
	ra, rb := float64(a.AckedSegments()), float64(b.AckedSegments())
	if ra == 0 || rb == 0 {
		t.Fatalf("starvation: %v vs %v", ra, rb)
	}
	ratio := ra / rb
	if ratio < 1.0/3 || ratio > 3 {
		t.Errorf("unfair split %.0f vs %.0f segments (ratio %.2f)", ra, rb, ratio)
	}
}

func TestTimeoutBackoffOnDeadPath(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{TotalBytes: 15_000})
	// Kill the return path: ACKs vanish.
	d.RevDemux.Unregister(1)
	s.Run(2 * time.Minute)
	timeouts := f.timeouts
	if timeouts < 2 {
		t.Fatalf("only %d timeouts on a dead path in 2 minutes", timeouts)
	}
	// Exponential backoff: far fewer timeouts than 120s / 1s.
	if timeouts > 10 {
		t.Fatalf("%d timeouts — backoff is not exponential", timeouts)
	}
	if f.done {
		t.Fatal("flow completed without ACKs")
	}
}

func TestFiniteFlowExactSegments(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	// 10001 bytes = 7 segments of 1500 (ceil).
	f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{TotalBytes: 10_001})
	s.Run(10 * time.Second)
	if !f.done {
		t.Fatal("not done")
	}
	if f.AckedSegments() != 7 {
		t.Fatalf("acked %d segments, want 7", f.AckedSegments())
	}
	if f.sent != 7 {
		t.Fatalf("sent %d segments, want 7", f.sent)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.applyDefaults()
	if c.RcvWnd != 256 || c.MinRTO != time.Second {
		t.Fatalf("unexpected defaults: %+v", c)
	}
}

func TestOnCompleteExactlyOnce(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{})
	calls := 0
	Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{
		TotalBytes: 150_000,
		OnComplete: func() { calls++ },
	})
	s.Run(time.Minute)
	if calls != 1 {
		t.Fatalf("OnComplete called %d times", calls)
	}
}

func TestCwndNeverBelowOneWindow(t *testing.T) {
	s := simnet.New()
	d := simnet.NewDumbbell(s, simnet.DumbbellConfig{
		BottleneckRate: simnet.Rate(5_000_000),
		QueueDuration:  10 * time.Millisecond,
	})
	f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{})
	min := 1e9
	var poll func()
	poll = func() {
		if f.cwnd < min {
			min = f.cwnd
		}
		s.Schedule(10*time.Millisecond, poll)
	}
	s.Schedule(0, poll)
	s.Run(time.Minute)
	if min < 1 {
		t.Fatalf("cwnd fell below 1 segment: %v", min)
	}
}
