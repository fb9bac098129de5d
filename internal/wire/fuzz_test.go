package wire

import (
	"net"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/probe"
)

// FuzzHeaderUnmarshal ensures arbitrary bytes never panic the decoder and
// that anything it accepts re-encodes to an equivalent header.
func FuzzHeaderUnmarshal(f *testing.F) {
	seedBuf := make([]byte, HeaderSize)
	good := Header{P: 0.3, N: 1000, SlotWidth: 5 * time.Millisecond, Seed: 1}
	good.Marshal(seedBuf)
	f.Add(seedBuf)
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x44, 0x42, 0x47})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		if err := h.Unmarshal(data); err != nil {
			return
		}
		// Accepted: the header must re-encode exactly unless P is out
		// of range (NaN included), which Marshal refuses.
		if !(h.P > 0 && h.P <= 1) {
			return
		}
		buf := make([]byte, HeaderSize)
		if _, err := h.Marshal(buf); err != nil {
			t.Fatalf("accepted header failed to re-marshal: %v (%+v)", err, h)
		}
		var h2 Header
		if err := h2.Unmarshal(buf); err != nil {
			t.Fatalf("re-marshaled header failed to decode: %v", err)
		}
		if h2 != h {
			t.Fatalf("round trip diverged: %+v vs %+v", h2, h)
		}
	})
}

// FuzzControlQuery throws arbitrary bytes at the collector's control
// request parser. parseQuery must never panic, must reject anything
// shorter than a query or with the wrong magic/version, and everything
// built by marshalQuery must round-trip to the same expID.
func FuzzControlQuery(f *testing.F) {
	f.Add(marshalQuery(0))
	f.Add(marshalQuery(7))
	f.Add(marshalQuery(^uint64(0)))
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x42, 0x52, 0x51}) // magic alone, truncated
	f.Add(marshalQuery(7)[:querySize-1])  // one byte short of a query
	f.Add(append(marshalQuery(7), 0xFF))  // trailing garbage is still a query
	wrongVer := marshalQuery(7)
	wrongVer[4] = Version + 1
	f.Add(wrongVer) // future protocol version must be rejected
	asReply := marshalQuery(9)
	asReply[3] = 0x50 // reply magic in a query-sized frame
	f.Add(asReply)
	// Batch-boundary shapes: a buggy batcher would deliver glued frames,
	// a frame padded out to the full batch slot, or a slot's stale tail
	// after a shorter datagram. Each must parse exactly like its
	// single-packet equivalent (prefix-only).
	f.Add(append(marshalQuery(3), marshalQuery(4)...)) // two queries in one slot
	padded := make([]byte, maxDatagram)
	copy(padded, marshalQuery(5))
	f.Add(padded) // query at the head of a full 2 KiB batch buffer
	stale := append(marshalQuery(6), marshalQuery(^uint64(0))...)
	f.Add(stale[:querySize+3]) // stale bytes from the previous batch fill
	f.Fuzz(func(t *testing.T, data []byte) {
		expID, ok := parseQuery(data)
		if !ok {
			return
		}
		// Accepted: re-marshaling the extracted expID must produce a
		// packet the parser accepts with the same id.
		id2, ok2 := parseQuery(marshalQuery(expID))
		if !ok2 || id2 != expID {
			t.Fatalf("query round trip diverged: %d -> %d (ok=%v)", expID, id2, ok2)
		}
	})
}

// FuzzControlReply drives the reply decode path used by Query: framing
// detection, then JSON body decode. Arbitrary bytes must never panic,
// and every reply built by encodeReply must parse back to the same
// counts.
func FuzzControlReply(f *testing.F) {
	good, _ := encodeReply(ControlReply{ExpID: 7, Found: true, PacketsLost: 3, Skipped: 1})
	f.Add(good)
	f.Add(good[:replyHeader]) // framed but empty body
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x42, 0x52, 0x50, Version, 0, 0, 0, '{'})           // framed, corrupt JSON
	f.Add(marshalQuery(7))                                                 // a query is not a reply
	f.Add(good[:len(good)-1])                                              // body truncated mid-JSON
	f.Add(good[:replyHeader-1])                                            // truncated inside the header
	f.Add(append(append([]byte{}, good...), good...))                      // two replies glued together
	f.Add([]byte("\x42\x42\x52\x50\x01\x00\x00\x00{\"exp_id\":-1}"))       // out-of-range field
	f.Add([]byte("\x42\x42\x52\x50\x01\x00\x00\x00{\"exp_id\":7}garbage")) // JSON then trailing junk
	f.Add([]byte("\x42\x42\x52\x50\x01\x00\x00\x00null"))                  // body is JSON null
	f.Fuzz(func(t *testing.T, data []byte) {
		reply, ok, err := parseReply(data)
		if !ok || err != nil {
			return
		}
		// Accepted: the reply must survive a re-encode/re-parse cycle.
		buf, err := encodeReply(reply)
		if err != nil {
			t.Fatalf("accepted reply failed to re-encode: %v (%+v)", err, reply)
		}
		r2, ok2, err2 := parseReply(buf)
		if !ok2 || err2 != nil {
			t.Fatalf("re-encoded reply failed to parse: ok=%v err=%v", ok2, err2)
		}
		if r2 != reply {
			t.Fatalf("reply round trip diverged: %+v vs %+v", r2, reply)
		}
	})
}

// FuzzLiveness throws arbitrary bytes at the liveness-frame parser: it
// must never panic, must reject short frames, foreign magics/versions and
// unknown kinds, and everything it accepts must round-trip through
// marshalLiveness unchanged.
func FuzzLiveness(f *testing.F) {
	f.Add(marshalLiveness(livenessPing, 7, 1234))
	f.Add(marshalLiveness(livenessPong, ^uint64(0), -1))
	f.Add(pongFor(42, 99))
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x42, 0x4C, 0x56}) // magic alone, truncated
	f.Add(marshalLiveness(livenessPing, 7, 1)[:livenessSize-1])
	f.Add(append(marshalLiveness(livenessPing, 7, 1), 0xFF)) // trailing junk
	wrongVer := marshalLiveness(livenessPing, 7, 1)
	wrongVer[4] = Version + 1
	f.Add(wrongVer)
	wrongKind := marshalLiveness(livenessPing, 7, 1)
	wrongKind[5] = 9
	f.Add(wrongKind)
	hdr := make([]byte, HeaderSize) // a probe header is not a liveness frame
	(&Header{P: 0.3, N: 100, SlotWidth: time.Millisecond, Seed: 1}).Marshal(hdr)
	f.Add(hdr)
	// Batch-boundary shapes (see FuzzControlQuery): glued frames, a frame
	// padded to the full batch slot, and a pong bleeding into a stale
	// tail must all decode prefix-only, like their single-packet twins.
	f.Add(append(marshalLiveness(livenessPing, 1, 2), marshalLiveness(livenessPong, 3, 4)...))
	padded := make([]byte, maxDatagram)
	copy(padded, marshalLiveness(livenessPong, 8, 9))
	f.Add(padded)
	stale := append(marshalLiveness(livenessPing, 5, 6), hdr...)
	f.Add(stale[:livenessSize+5])
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, nonce, sendTime, ok := parseLiveness(data)
		if !ok {
			return
		}
		if kind != livenessPing && kind != livenessPong {
			t.Fatalf("accepted unknown kind %d", kind)
		}
		kind2, nonce2, sendTime2, ok2 := parseLiveness(marshalLiveness(kind, nonce, sendTime))
		if !ok2 || kind2 != kind || nonce2 != nonce || sendTime2 != sendTime {
			t.Fatalf("liveness round trip diverged: (%d,%d,%d,%v) vs (%d,%d,%d)",
				kind2, nonce2, sendTime2, ok2, kind, nonce, sendTime)
		}
	})
}

// FuzzZingHeaderUnmarshal does the same for the ZING format.
func FuzzZingHeaderUnmarshal(f *testing.F) {
	seedBuf := make([]byte, ZingHeaderSize)
	good := ZingHeader{ExpID: 1, Seq: 2, SendTime: 3}
	good.Marshal(seedBuf)
	f.Add(seedBuf)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h ZingHeader
		if err := h.Unmarshal(data); err != nil {
			return
		}
		buf := make([]byte, ZingHeaderSize)
		if _, err := h.Marshal(buf); err != nil {
			t.Fatalf("accepted header failed to re-marshal: %v", err)
		}
		var h2 ZingHeader
		if err := h2.Unmarshal(buf); err != nil || h2 != h {
			t.Fatalf("round trip diverged: %+v vs %+v (%v)", h2, h, err)
		}
	})
}

// FuzzCollectorPacket drives the collector's packet path. The input is a
// sequence of datagrams, each preceded by its one-byte length; every one
// goes through handlePacket on a no-op socket, and then every session is
// estimated and assembled. Nothing may panic or hang, and each session's
// records must stay strictly ascending by slot and inside [0, N).
// Schedules longer than 1<<16 slots but within badabing.MaxSlots are
// skipped: they are valid, and drawing them is only slow.
func FuzzCollectorPacket(f *testing.F) {
	probe := func(slot int64, idx uint8, n int64) []byte {
		h := Header{ExpID: 1, Slot: slot, PktIdx: idx, PktsPerProbe: 3, P: 0.5, N: n,
			SlotWidth: 5 * time.Millisecond, Seed: 3, SendTime: 1000}
		buf := make([]byte, HeaderSize)
		if _, err := h.Marshal(buf); err != nil {
			f.Fatal(err)
		}
		return buf
	}
	frames := func(dgrams ...[]byte) []byte {
		var out []byte
		for _, d := range dgrams {
			out = append(append(out, byte(len(d))), d...)
		}
		return out
	}
	f.Add(frames(probe(4, 0, 100), probe(4, 1, 100), probe(4, 2, 100)))
	f.Add(frames(probe(4, 0, 1<<62)))
	f.Add(frames(probe(9, 0, 100), probe(7, 0, 100), probe(5, 0, 100), probe(3, 0, 100), probe(1, 0, 100)))
	f.Add(frames(probe(4, 0, 100), probe(4, 0, 100)))
	f.Add(frames(probe(4, 0, 100), marshalQuery(1)))
	f.Add(frames(marshalLiveness(livenessPing, 7, 1), probe(4, 0, 100)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var dgrams [][]byte
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			dgrams = append(dgrams, data[1:1+n])
			data = data[1+n:]
		}
		for _, d := range dgrams {
			var h Header
			if h.Unmarshal(d) == nil && h.N > 1<<16 && h.N <= badabing.MaxSlots {
				t.Skip("valid schedule too long to draw per input")
			}
		}
		col := NewCollector(nopConn{})
		from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
		for _, d := range dgrams {
			col.handlePacket(d, from)
		}
		for _, id := range col.Sessions() {
			col.Estimate(id, badabing.MarkerConfig{}, estimate.Config{})
			col.mu.Lock()
			s := col.sessions[id]
			slots := make([]int64, len(s.probes))
			for i, r := range s.probes {
				if r.slot < 0 || r.slot >= s.params.N {
					t.Fatalf("session %d: record for slot %d outside [0, %d)", id, r.slot, s.params.N)
				}
				if i > 0 && r.slot <= slots[i-1] {
					t.Fatalf("session %d: records not strictly ascending: slot %d after %d", id, r.slot, slots[i-1])
				}
				slots[i] = r.slot
			}
			perProbe, width := int(s.params.PktsPerProbe), s.params.SlotWidth
			col.mu.Unlock()
			if obs, _, _ := col.AssembleObs(id, slots, perProbe, width); len(obs) != len(slots) {
				t.Fatalf("session %d: %d observations for %d slots", id, len(obs), len(slots))
			}
		}
	})
}

// FuzzZingCollector drives the ZING collector's packet path. The input is
// a sequence of datagrams, each preceded by its one-byte length; every
// one that decodes is recorded, having arrived as long ago as its send
// time's low 42 bits say (up to 73 minutes, so trailing probes are due in
// some inputs and not in others). Each session is then reported, and
// everything is expired. Nothing may panic or hang; a session is
// reportable exactly when its draw's Epochs accepts it; a report's
// lost probes never exceed its probes, nor its probes the draw; its
// frequency lies in [0, 1]; and Expire(0) leaves no session behind.
// Valid draws longer than 1<<16 probes are skipped: drawing them is only
// slow.
func FuzzZingCollector(f *testing.F) {
	draw := probe.ZingConfig{Seed: 1, Mean: time.Millisecond, Duration: 100 * time.Millisecond}
	packet := func(seq uint64, draw probe.ZingConfig) []byte {
		buf := make([]byte, ZingHeaderSize)
		h := ZingHeader{ExpID: 1, Seq: seq, SendTime: int64(seq) * int64(time.Millisecond), Draw: draw}
		if _, err := h.Marshal(buf); err != nil {
			f.Fatal(err)
		}
		return buf
	}
	frames := func(draw probe.ZingConfig, seqs ...uint64) []byte {
		var out []byte
		for _, s := range seqs {
			out = append(append(out, ZingHeaderSize), packet(s, draw)...)
		}
		return out
	}
	with := func(mean, dur time.Duration) probe.ZingConfig {
		d := draw
		d.Mean, d.Duration = mean, dur
		return d
	}
	f.Add(frames(draw, 0, 1, 2, 3))                       // clean stream
	f.Add(frames(draw, 0, 1, 1, 2))                       // duplicate
	f.Add(frames(draw, 0, 2, 1, 3))                       // reordered pair
	f.Add(frames(draw, 0, 1, 1<<63+5))                    // sequence number near 2^63
	f.Add(frames(with(time.Nanosecond, time.Hour), 0, 1)) // oversized draw
	f.Add(frames(with(0, time.Second), 0, 1))             // zero mean
	f.Add(frames(with(time.Millisecond, 0), 0, 1))        // zero duration
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewZingCollector()
		now := time.Now()
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			var h ZingHeader
			if h.Unmarshal(data[1:1+n]) == nil {
				if d := h.Draw; d.Mean > 0 && d.Duration/d.Mean > 1<<16 && d.Duration/d.Mean <= badabing.MaxSlots {
					t.Skip("valid draw too long to draw per input")
				}
				c.Record(&h, now.Add(-time.Duration(h.SendTime&(1<<42-1))))
			}
			data = data[1+n:]
		}
		for _, id := range c.Sessions() {
			d := c.sessions[id].draw
			epochs, drawErr := d.Epochs()
			rep, err := c.Report(id)
			if (err != nil) != (drawErr != nil) {
				t.Fatalf("session %d: draw %+v refused with %v, report with %v", id, d, drawErr, err)
			}
			if rep.Lost > rep.Probes || rep.Probes > len(epochs) {
				t.Fatalf("session %d: %d lost of %d probes, %d drawn", id, rep.Lost, rep.Probes, len(epochs))
			}
			if !(rep.Frequency >= 0 && rep.Frequency <= 1) {
				t.Fatalf("session %d: frequency %v outside [0, 1]", id, rep.Frequency)
			}
		}
		c.Expire(0)
		if ids := c.Sessions(); len(ids) != 0 {
			t.Fatalf("Expire(0) left sessions %v", ids)
		}
	})
}
