package wire

import (
	"context"
	"testing"
	"time"

	"badabing/internal/probe"
)

// pinNow overrides the clock-derived seed source for the test's duration.
func pinNow(t *testing.T, nanos int64) {
	t.Helper()
	old := nowNano
	nowNano = func() int64 { return nanos }
	t.Cleanup(func() { nowNano = old })
}

func TestSenderConfigSeedFromClock(t *testing.T) {
	pinNow(t, 424242)
	cfg := SenderConfig{P: 0.3, N: 100}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatalf("applyDefaults: %v", err)
	}
	if cfg.Seed != 424242 {
		t.Fatalf("clock-derived seed = %d, want 424242", cfg.Seed)
	}

	cfg = SenderConfig{P: 0.3, N: 100, Seed: 7}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatalf("applyDefaults: %v", err)
	}
	if cfg.Seed != 7 {
		t.Fatalf("explicit seed overwritten: got %d, want 7", cfg.Seed)
	}
}

func TestAdaptiveConfigSeedFromClock(t *testing.T) {
	pinNow(t, 171717)
	cfg := AdaptiveConfig{}
	cfg.applyDefaults()
	if cfg.Seed != 171717 {
		t.Fatalf("clock-derived seed = %d, want 171717", cfg.Seed)
	}

	cfg = AdaptiveConfig{Seed: 9}
	cfg.applyDefaults()
	if cfg.Seed != 9 {
		t.Fatalf("explicit seed overwritten: got %d, want 9", cfg.Seed)
	}
}

// recordConn is a connected socket that keeps a copy of every write.
type recordConn struct {
	rejectConn
	pkts [][]byte
}

func (c *recordConn) Write(b []byte) (int, error) {
	c.pkts = append(c.pkts, append([]byte(nil), b...))
	return len(b), nil
}

// TestZingSendSeedFromClock: a live ZING sender given seed 0 draws from
// a clock-derived seed, and every header carries it; an explicit seed
// stays.
func TestZingSendSeedFromClock(t *testing.T) {
	pinNow(t, 99)
	for _, tc := range []struct{ seed, want int64 }{{0, 99}, {7, 7}} {
		conn := &recordConn{}
		draw := probe.ZingConfig{Mean: time.Millisecond, Duration: 20 * time.Millisecond, Seed: tc.seed}
		if _, err := ZingSend(context.Background(), conn, 1, ZingHeaderSize, draw); err != nil {
			t.Fatal(err)
		}
		if len(conn.pkts) == 0 {
			t.Fatal("no probe sent")
		}
		for _, pkt := range conn.pkts {
			var h ZingHeader
			if err := h.Unmarshal(pkt); err != nil {
				t.Fatal(err)
			}
			if h.Draw.Seed != tc.want {
				t.Fatalf("seed %d: header carries seed %d, want %d", tc.seed, h.Draw.Seed, tc.want)
			}
		}
	}
}
