package trace

import (
	"fmt"
	"io"
	"time"

	"badabing/internal/capture"
)

// Summary is the offline analysis of a trace: the Delineator the live
// capture monitor also uses, fed from recorded packet events, plus what
// only a trace records.
type Summary struct {
	*capture.Delineator
	Records uint64
	Departs uint64
	// Span is the time of the last record.
	Span time.Duration
	// PeakQueue is the highest observed occupancy in bytes.
	PeakQueue uint32
}

// Analyze replays an entire trace into a capture.Delineator. Each Drop
// record reuses the occupancy of the Arrive record before it, as the
// live tap does. A record whose time runs backwards or whose event is
// unknown is an error that names the record's index.
func Analyze(r *Reader) (Summary, error) {
	s := Summary{Delineator: capture.NewDelineator(int(r.Header.QueueCap))}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return s, err
		}
		if rec.T < s.Span {
			return s, fmt.Errorf("trace: record %d: time %v precedes %v", s.Records, rec.T, s.Span)
		}
		switch rec.Event {
		case Arrive:
			s.Arrive(int(rec.QueueBytes))
		case Depart:
			s.Departs++
			s.Depart(int(rec.QueueBytes))
		case Drop:
			s.Drop(rec.T)
		default:
			return s, fmt.Errorf("trace: record %d: unknown event %d", s.Records, rec.Event)
		}
		s.Records++
		s.Span = rec.T
		s.PeakQueue = max(s.PeakQueue, rec.QueueBytes)
	}
}

// MatchLoss reproduces the paper's DAG trace-differencing: given the
// arrival records of an ingress trace and the departure records of an
// egress trace, it returns the IDs of packets that entered the queue but
// never left — the lost packets — without consulting any Drop records.
func MatchLoss(ingress, egress []Record) []uint64 {
	departed := make(map[uint64]bool)
	for _, r := range egress {
		if r.Event == Depart {
			departed[r.ID] = true
		}
	}
	var lost []uint64
	for _, r := range ingress {
		if r.Event == Arrive && !departed[r.ID] {
			lost = append(lost, r.ID)
		}
	}
	return lost
}
