package main

import (
	"context"
	"net"
	"slices"
	"testing"
	"time"

	"badabing/internal/wire"
)

// TestCollectForgetsIdleSessions: the collect loop reports an idle
// session once more after its last packet, then drops it, so a
// long-running collector does not keep every session forever.
func TestCollectForgetsIdleSessions(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col := wire.NewCollector(conn)
	go col.Run()
	defer col.Close()

	sender, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	h := wire.Header{ExpID: 7, PktsPerProbe: 1, P: 0.5, N: 100,
		SlotWidth: 5 * time.Millisecond, Seed: 1, SendTime: time.Now().UnixNano()}
	buf := make([]byte, wire.HeaderSize)
	if _, err := h.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Write(buf); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(col.Sessions()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the collector never saw the probe")
		}
		time.Sleep(time.Millisecond)
	}

	const every = 20 * time.Millisecond
	time.Sleep(2 * every) // the session is now idle for longer than every
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tick := make(chan time.Time)
	reports := make(chan []uint64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveReports(ctx, col, tick, every, func() {
			select {
			case reports <- col.Sessions():
			case <-ctx.Done():
			}
		})
	}()
	tick <- time.Now()
	if got := <-reports; !slices.Equal(got, []uint64{7}) {
		t.Fatalf("first report lists sessions %v, want [7]", got)
	}
	tick <- time.Now()
	if got := <-reports; len(got) != 0 {
		t.Fatalf("second report lists sessions %v, want none", got)
	}
	cancel()
	<-done
}

// TestCollectRejectsNonPositiveEvery: a report interval of zero is a
// flag error, not a ticker panic after the socket is bound.
func TestCollectRejectsNonPositiveEvery(t *testing.T) {
	if err := runCollect([]string{"-listen", "127.0.0.1:0", "-every", "0"}); err == nil {
		t.Fatal("collect -every 0 returned no error")
	}
}
