package tcp

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"badabing/internal/simnet"
)

// logTap records every packet event at a link.
type logTap struct{ log *[]string }

func (t logTap) Arrive(now time.Duration, p *simnet.Packet, q int) {
	*t.log = append(*t.log, fmt.Sprintf("%v arrive %d/%d id%d q%d", now, p.Flow, p.Seq, p.ID, q))
}

func (t logTap) Dropped(now time.Duration, p *simnet.Packet, _ simnet.Drop) {
	*t.log = append(*t.log, fmt.Sprintf("%v drop %d/%d", now, p.Flow, p.Seq))
}

func (t logTap) Depart(now time.Duration, p *simnet.Packet, q int) {
	*t.log = append(*t.log, fmt.Sprintf("%v depart %d/%d q%d", now, p.Flow, p.Seq, q))
}

// TestRestartMatchesStart runs a finished flow again with Restart and,
// on an identical path, a new flow with Start, and requires the same
// state once started and the same packet trace and counters after: no
// sender, receiver or timer state may leak from the first transfer into
// the second. The second transfer loses
// packets, jitters its sends and bounds its RTO below by less than an
// RTT, none of which the first did.
func TestRestartMatchesStart(t *testing.T) {
	run := func(restart bool) ([]string, Flow, *Flow, *simnet.Dumbbell) {
		s := simnet.New()
		d := simnet.NewDumbbell(s, simnet.DumbbellConfig{
			BottleneckRate: simnet.Rate(10_000_000),
			QueueDuration:  20 * time.Millisecond,
		})
		f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{TotalBytes: 60_000})
		s.Run(time.Minute) // done, and every packet delivered
		if !f.done {
			t.Fatal("the first transfer did not finish")
		}
		var log []string
		d.Bottleneck.AddTap(logTap{&log})
		d.Reverse.AddTap(logTap{&log})
		second := Config{TotalBytes: 3_000_000, SendJitter: 100 * time.Microsecond, MinRTO: 20 * time.Millisecond}
		g := f
		if restart {
			f.Restart(2, second)
		} else {
			g = Start(s, 2, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, second)
		}
		state := *g // the bindings differ between the runs; the rest may not
		state.sim, state.fwd, state.rev, state.fwdDemux, state.revDemux = nil, nil, nil, nil, nil
		state.rtoT, state.jrng = nil, nil
		s.Run(s.Now() + 2*time.Minute)
		log = append(log, fmt.Sprintf("done %v sent %d retrans %d timeouts %d fast %d acked %d cwnd %v",
			g.done, g.sent, g.retrans, g.timeouts, g.fastRtx, g.AckedSegments(), g.cwnd))
		return log, state, g, d
	}
	want, wantState, fresh, _ := run(false)
	got, gotState, restarted, d := run(true)
	if !reflect.DeepEqual(gotState, wantState) {
		t.Fatalf("a restarted flow starts as\n%+v\na fresh flow as\n%+v", gotState, wantState)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("event %d after the restart is %q, a fresh flow's is %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d events after the restart, %d for a fresh flow", len(got), len(want))
	}
	if !fresh.done || fresh.retrans == 0 {
		t.Fatalf("the second transfer finished %v with %d retransmissions; want a lossy, finished one", fresh.done, fresh.retrans)
	}
	if restarted.id != 2 {
		t.Fatalf("restarted flow has id %d", restarted.id)
	}
	before := d.FwdDemux.Orphans()
	d.FwdDemux.Deliver(simnet.Packet{Flow: 1})
	if d.FwdDemux.Orphans() != before+1 {
		t.Fatal("the old id still routes to the restarted flow")
	}
}

func TestRestartUnfinishedPanics(t *testing.T) {
	s, d := testbed(simnet.DumbbellConfig{})
	f := Start(s, 1, d.Bottleneck, d.Reverse, d.FwdDemux, d.RevDemux, Config{TotalBytes: 150_000})
	defer func() {
		if recover() == nil {
			t.Fatal("restarting a running flow did not panic")
		}
	}()
	f.Restart(2, Config{})
}
