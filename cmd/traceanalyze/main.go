// Command traceanalyze reconstructs loss characteristics offline from a
// packet trace captured with tracegen (or any writer of the same format):
// loss episodes, episode frequency and mean duration, the router-centric
// loss rate, and a cross-check of trace differencing (lost = entered but
// never left) against the recorded drop events.
//
// Usage:
//
//	traceanalyze -in trace.bbtr [-episodes] [-slot 5ms]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"badabing/internal/trace"
)

// errUsage marks a command-line error; main exits 2 on it.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "traceanalyze:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("traceanalyze", flag.ExitOnError)
	in := fs.String("in", "", "trace file (required)")
	slot := fs.Duration("slot", 5*time.Millisecond, "slot width for the frequency computation")
	listEpisodes := fs.Bool("episodes", false, "list every reconstructed episode")
	fs.Parse(args)
	if *in == "" || *slot <= 0 {
		return fmt.Errorf("%w: missing -in, or -slot not positive", errUsage)
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	sum, err := trace.Analyze(r)
	if err != nil {
		return err
	}
	// A second pass keeps every record, for trace differencing and the
	// passive TCP estimate (the reader is drained).
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r2, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	recs, err := trace.ReadAll(r2)
	if err != nil {
		return err
	}

	// Truth over every slot the trace reaches, the last one included.
	w := *slot
	truth := sum.Truth((sum.Span/w+1)*w, w)
	arrivals, drops := sum.Tally()
	fmt.Fprintf(stdout, "link: %d b/s, queue %d bytes\n", r.Header.BitsPerSec, r.Header.QueueCap)
	fmt.Fprintf(stdout, "records: %d (%d arrivals, %d departures, %d drops) over %v\n",
		sum.Records, arrivals, sum.Departs, drops, sum.Span.Round(time.Millisecond))
	crossCheck(stdout, recs)
	fmt.Fprintf(stdout, "loss rate: %.5f\n", truth.LossRate)
	fmt.Fprintf(stdout, "loss episodes: %d (frequency %.4f at %v slots)\n",
		truth.Episodes, truth.Frequency, *slot)
	if truth.Duration.N() > 0 {
		fmt.Fprintf(stdout, "episode duration: µ %.4fs (σ %.4f)\n",
			truth.Duration.Mean(), truth.Duration.StdDev())
	}
	fmt.Fprintf(stdout, "peak queue occupancy: %d bytes (%.1f%% of capacity)\n",
		sum.PeakQueue, 100*float64(sum.PeakQueue)/float64(r.Header.QueueCap))
	if *listEpisodes {
		for i, e := range sum.Episodes() {
			fmt.Fprintf(stdout, "  %4d  [%10.3fs .. %10.3fs]  %7.1fms  %d drops\n",
				i, e.Start.Seconds(), e.End.Seconds(),
				e.Duration().Seconds()*1000, e.Drops)
		}
	}
	if est := trace.EstimateTCPLoss(recs); est.Segments > 0 {
		fmt.Fprintf(stdout, "passive TCP estimate: %d flows, %d retransmissions, rate %.5f\n",
			est.Flows, est.Retransmissions, est.Rate)
	}
	return nil
}

// crossCheck prints the paper's trace differencing (§5.2.2): the packets
// that entered the queue and never left, found without the Drop records,
// against those records. The trace is both the ingress and the egress
// capture. A packet still queued when the trace ends also never left,
// so the two agree only when the queue ends empty.
func crossCheck(stdout io.Writer, recs []trace.Record) {
	lost := map[uint64]bool{}
	for _, id := range trace.MatchLoss(recs, recs) {
		lost[id] = true
	}
	var dropped, matched int
	for _, rec := range recs {
		if rec.Event == trace.Drop {
			dropped++
			if lost[rec.ID] {
				matched++
			}
		}
	}
	verdict := "agrees"
	if matched != dropped || len(lost) != dropped {
		verdict = "differs"
	}
	fmt.Fprintf(stdout, "trace differencing: %d packets entered and never left, %d of %d drop records among them (%s)\n",
		len(lost), matched, dropped, verdict)
}
