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
	"flag"
	"fmt"
	"os"
	"time"

	"badabing/internal/trace"
)

func main() {
	in := flag.String("in", "", "trace file (required)")
	slot := flag.Duration("slot", 5*time.Millisecond, "slot width for the frequency computation")
	listEpisodes := flag.Bool("episodes", false, "list every reconstructed episode")
	flag.Parse()
	if *in == "" || *slot <= 0 {
		fmt.Fprintln(os.Stderr, "traceanalyze: missing -in, or -slot not positive")
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceanalyze:", err)
		os.Exit(1)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceanalyze:", err)
		os.Exit(1)
	}
	sum, err := trace.Analyze(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceanalyze:", err)
		os.Exit(1)
	}
	// Second pass for the passive TCP estimate (the reader is drained).
	if _, err := f.Seek(0, 0); err == nil {
		if r2, err := trace.NewReader(f); err == nil {
			if recs, err := trace.ReadAll(r2); err == nil {
				est := trace.EstimateTCPLoss(recs)
				if est.Segments > 0 {
					defer fmt.Printf("passive TCP estimate: %d flows, %d retransmissions, rate %.5f\n",
						est.Flows, est.Retransmissions, est.Rate)
				}
			}
		}
	}
	// Truth over every slot the trace reaches, the last one included.
	w := *slot
	truth := sum.Truth((sum.Span/w+1)*w, w)
	arrivals, drops := sum.Tally()
	fmt.Printf("link: %d b/s, queue %d bytes\n", r.Header.BitsPerSec, r.Header.QueueCap)
	fmt.Printf("records: %d (%d arrivals, %d departures, %d drops) over %v\n",
		sum.Records, arrivals, sum.Departs, drops, sum.Span.Round(time.Millisecond))
	fmt.Printf("loss rate: %.5f\n", truth.LossRate)
	fmt.Printf("loss episodes: %d (frequency %.4f at %v slots)\n",
		truth.Episodes, truth.Frequency, *slot)
	if truth.Duration.N() > 0 {
		fmt.Printf("episode duration: µ %.4fs (σ %.4f)\n",
			truth.Duration.Mean(), truth.Duration.StdDev())
	}
	fmt.Printf("peak queue occupancy: %d bytes (%.1f%% of capacity)\n",
		sum.PeakQueue, 100*float64(sum.PeakQueue)/float64(r.Header.QueueCap))
	if *listEpisodes {
		for i, e := range sum.Episodes() {
			fmt.Printf("  %4d  [%10.3fs .. %10.3fs]  %7.1fms  %d drops\n",
				i, e.Start.Seconds(), e.End.Seconds(),
				e.Duration().Seconds()*1000, e.Drops)
		}
	}
}
