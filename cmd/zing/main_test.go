package main

import (
	"context"
	"slices"
	"testing"
	"time"

	"badabing/internal/wire"
)

// TestCollectForgetsIdleSessions: the collect loop reports an idle
// session once more after its last packet, then drops it, so a
// long-running collector does not keep every session forever.
func TestCollectForgetsIdleSessions(t *testing.T) {
	col := wire.NewZingCollector()
	col.Record(&wire.ZingHeader{ExpID: 7, SendTime: time.Now().UnixNano()}, time.Now())

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

// TestCollectRejectsNonPositiveEvery: a negative report interval is a
// flag error, not a ticker panic after the socket is bound.
func TestCollectRejectsNonPositiveEvery(t *testing.T) {
	if err := runCollect([]string{"-listen", "127.0.0.1:0", "-every", "-1s"}); err == nil {
		t.Fatal("collect -every -1s returned no error")
	}
}
