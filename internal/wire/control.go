package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"badabing/internal/badabing"
)

// Control channel: the sender can query the collector, over the same UDP
// socket probes travel on, for a session's accumulated outcome counts.
// This closes the feedback loop that adaptive probing (§8) needs on a
// live path: after each round the sender merges the collector's counts
// into its controller and decides whether to stop, continue, or escalate.

// QueryMagic identifies control requests.
const QueryMagic uint32 = 0x42425251 // "BBRQ"

// ReplyMagic identifies control replies.
const ReplyMagic uint32 = 0x42425250 // "BBRP"

// querySize is the fixed request size: magic, version, pad×3, expID.
const querySize = 16

// ControlReply is the collector's answer to a query, JSON-encoded on the
// wire after an 8-byte header (magic + version + padding).
type ControlReply struct {
	ExpID uint64 `json:"exp_id"`
	Found bool   `json:"found"`
	// Counts is the session's outcome tallies after marking with the
	// collector's configured marker parameters.
	Counts badabing.Counts `json:"counts"`
	// PacketsLost and Skipped mirror SessionStats.
	PacketsLost int `json:"packets_lost"`
	Skipped     int `json:"skipped"`
}

const replyHeader = 8

// marshalQuery builds a control request for expID.
func marshalQuery(expID uint64) []byte {
	buf := make([]byte, querySize)
	binary.BigEndian.PutUint32(buf[0:], QueryMagic)
	buf[4] = Version
	binary.BigEndian.PutUint64(buf[8:], expID)
	return buf
}

// parseQuery extracts the expID from a control request, reporting whether
// the packet is one.
func parseQuery(data []byte) (uint64, bool) {
	if len(data) < querySize {
		return 0, false
	}
	if binary.BigEndian.Uint32(data[0:]) != QueryMagic || data[4] != Version {
		return 0, false
	}
	return binary.BigEndian.Uint64(data[8:]), true
}

// encodeReply frames a control reply: 8-byte header (magic + version +
// padding) followed by the JSON body.
func encodeReply(reply ControlReply) ([]byte, error) {
	body, err := json.Marshal(reply)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, replyHeader+len(body))
	binary.BigEndian.PutUint32(buf[0:], ReplyMagic)
	buf[4] = Version
	copy(buf[replyHeader:], body)
	return buf, nil
}

// parseReply decodes a control reply packet. ok reports whether the bytes
// are framed as a reply at all (magic present); a framing match with a
// corrupt body returns ok=true and a non-nil error, mirroring how Query
// distinguishes "not for us" from "broken".
func parseReply(data []byte) (reply ControlReply, ok bool, err error) {
	if len(data) < replyHeader || binary.BigEndian.Uint32(data[0:]) != ReplyMagic {
		return reply, false, nil
	}
	if err := json.Unmarshal(data[replyHeader:], &reply); err != nil {
		return reply, true, fmt.Errorf("wire: control reply: %w", err)
	}
	return reply, true, nil
}

// SetMarker configures the marking parameters used when answering
// control queries (and only those; Estimate still takes explicit
// parameters). Safe to call while Run is active.
func (c *Collector) SetMarker(m badabing.MarkerConfig) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queryMarker = m
}

// handleQuery builds and sends a reply to addr.
func (c *Collector) handleQuery(expID uint64, addr net.Addr) {
	c.mu.Lock()
	marker := c.queryMarker
	c.mu.Unlock()
	reply := ControlReply{ExpID: expID}
	counts, ss, err := c.counts(expID, marker)
	if err == nil {
		reply.Found = true
		reply.Counts = counts
		reply.PacketsLost = ss.PacketsLost
		reply.Skipped = ss.Skipped
	}
	buf, err := encodeReply(reply)
	if err != nil {
		return
	}
	c.conn.WriteTo(buf, addr)
}

// Query sends a control request for expID over conn (a connected UDP
// socket to the collector, typically through the same path probes take)
// and waits up to timeout for the reply.
func Query(conn net.Conn, expID uint64, timeout time.Duration) (ControlReply, error) {
	var out ControlReply
	if _, err := conn.Write(marshalQuery(expID)); err != nil {
		return out, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return out, err
	}
	defer conn.SetReadDeadline(time.Time{})
	buf := make([]byte, 65536)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return out, fmt.Errorf("wire: control query: %w", err)
		}
		reply, ok, err := parseReply(buf[:n])
		if !ok {
			continue // not a reply (e.g. stray probe reflection)
		}
		if err != nil {
			return out, err
		}
		if reply.ExpID != expID {
			continue // stale reply for an earlier round
		}
		return reply, nil
	}
}

// ErrSessionNotFound is returned by QueryCounts when the collector has no
// record of the session (e.g. every probe was lost).
var ErrSessionNotFound = errors.New("wire: session not found at collector")

// QueryCounts is Query with not-found turned into an error.
func QueryCounts(conn net.Conn, expID uint64, timeout time.Duration) (badabing.Counts, error) {
	reply, err := Query(conn, expID, timeout)
	if err != nil {
		return badabing.Counts{}, err
	}
	if !reply.Found {
		return badabing.Counts{}, ErrSessionNotFound
	}
	return reply.Counts, nil
}
