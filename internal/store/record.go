// Package store is badabingd's durable measurement archive: an
// embedded, dependency-free write-ahead log of session lifecycle events
// and periodic estimate snapshots, with crash recovery, retention and a
// time-range query layer.
//
// On disk the archive is a directory of append-only segment files
// (`wal-NNNNNNNN.seg`). Each segment starts with an 8-byte magic and
// then holds length-prefixed binary records:
//
//	uint32  payload length (little endian)
//	uint32  CRC32-C of the payload (Castagnoli, little endian)
//	payload = 1 type byte + type-specific fields
//
// A record is durable once its bytes (and, under the "always" fsync
// policy, the fsync that follows them) hit the segment file. Recovery
// replays every segment in order and tolerates a torn or truncated tail:
// a short header, an impossible length or a CRC mismatch ends that
// segment's replay without error — the WAL guarantees a prefix, never
// the tail that was in flight when the process died.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// Record types. The type byte is the first payload byte.
const (
	recCreated byte = 0x01 // session registered: id, created, seed, config JSON
	recState   byte = 0x02 // lifecycle transition: id, at, state, flags, retries, seed, error
	recPoint   byte = 0x03 // periodic estimate snapshot: id + fixed-width Point
	recTotals  byte = 0x04 // registry lifetime totals (monotone across restarts)
	recFinal   byte = 0x05 // compaction summary: whole session in one record
)

// segMagic opens every segment file. The trailing byte versions the
// record format; bump it on incompatible changes.
var segMagic = [8]byte{'B', 'B', 'W', 'A', 'L', 0, 2, '\n'}

// maxRecord bounds a single record payload. Anything larger in a length
// field is corruption, not data: the biggest legitimate record is a
// recFinal carrying a config JSON, far under 1 MiB.
const maxRecord = 1 << 20

// recordOverhead is the framing cost per record: length + CRC.
const recordOverhead = 8

// zeroHdr reserves the framing header in an append chain without
// allocating (frame fills it in afterwards).
var zeroHdr [recordOverhead]byte

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Point is one persisted estimate snapshot: the F̂/D̂/loss-rate series
// element the history API serves. Encoded fixed-width so the steady-state
// append path never allocates.
type Point struct {
	// At is the wall-clock publish instant, Unix nanoseconds.
	At int64 `json:"at_unix_nano"`
	// SlotsDone is virtual measurement progress in slots.
	SlotsDone int64 `json:"slots_done"`
	// M is the number of experiments the estimates are computed from.
	M int64 `json:"m"`
	// Frequency is the loss-episode frequency estimate F̂ (total).
	Frequency float64 `json:"frequency"`
	// Duration is the mean loss-episode duration estimate D̂ in seconds,
	// valid when HasDuration.
	Duration    float64 `json:"duration_seconds"`
	HasDuration bool    `json:"has_duration"`
	// Probe/packet tallies at this instant (monotone within one run).
	ProbesSent  int64 `json:"probes_sent"`
	ProbesLost  int64 `json:"probes_lost"`
	PacketsSent int64 `json:"packets_sent"`
	PacketsLost int64 `json:"packets_lost"`
	Experiments int64 `json:"experiments"`
	// Bootstrap confidence bounds over the frequency and duration
	// estimates, present when the session runs the bootstrap estimator.
	// CILevel is the shared nominal coverage (e.g. 0.95).
	FreqLo    float64 `json:"freq_ci_lo,omitempty"`
	FreqHi    float64 `json:"freq_ci_hi,omitempty"`
	HasFreqCI bool    `json:"has_freq_ci,omitempty"`
	DurLo     float64 `json:"dur_ci_lo,omitempty"`
	DurHi     float64 `json:"dur_ci_hi,omitempty"`
	HasDurCI  bool    `json:"has_dur_ci,omitempty"`
	CILevel   float64 `json:"ci_level,omitempty"`
}

// LossRate is the packet loss rate at this point (0 before any packet).
func (p Point) LossRate() float64 {
	if p.PacketsSent == 0 {
		return 0
	}
	return float64(p.PacketsLost) / float64(p.PacketsSent)
}

// pointWidth is Point's fixed encoding: fifteen 8-byte fields + 1 flag
// byte.
const pointWidth = 15*8 + 1

// Totals are the registry's lifetime aggregate counters, persisted so
// daemon totals stay monotone across restarts.
type Totals struct {
	SessionsCreated  int64
	SessionsFinished int64
	SessionRetries   int64
	ProbesSent       int64
	ProbesLost       int64
	PacketsSent      int64
	PacketsLost      int64
	Experiments      int64
	WriteFailures    int64
}

const totalsWidth = 9 * 8

// maxTotals folds b into t field-wise (used during replay: the newest
// totals record wins, but a max is robust to reordered segments).
func (t *Totals) maxTotals(b Totals) {
	t.SessionsCreated = max64(t.SessionsCreated, b.SessionsCreated)
	t.SessionsFinished = max64(t.SessionsFinished, b.SessionsFinished)
	t.SessionRetries = max64(t.SessionRetries, b.SessionRetries)
	t.ProbesSent = max64(t.ProbesSent, b.ProbesSent)
	t.ProbesLost = max64(t.ProbesLost, b.ProbesLost)
	t.PacketsSent = max64(t.PacketsSent, b.PacketsSent)
	t.PacketsLost = max64(t.PacketsLost, b.PacketsLost)
	t.Experiments = max64(t.Experiments, b.Experiments)
	t.WriteFailures = max64(t.WriteFailures, b.WriteFailures)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- low-level append helpers (alloc-free on the steady path) ---

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendI64(dst []byte, v int64) []byte {
	return appendU64(dst, uint64(v))
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendPoint encodes p fixed-width.
func appendPoint(dst []byte, p Point) []byte {
	dst = appendI64(dst, p.At)
	dst = appendI64(dst, p.SlotsDone)
	dst = appendI64(dst, p.M)
	dst = appendF64(dst, p.Frequency)
	dst = appendF64(dst, p.Duration)
	var flags byte
	if p.HasDuration {
		flags |= 1
	}
	if p.HasFreqCI {
		flags |= 2
	}
	if p.HasDurCI {
		flags |= 4
	}
	dst = append(dst, flags)
	dst = appendI64(dst, p.ProbesSent)
	dst = appendI64(dst, p.ProbesLost)
	dst = appendI64(dst, p.PacketsSent)
	dst = appendI64(dst, p.PacketsLost)
	dst = appendI64(dst, p.Experiments)
	dst = appendF64(dst, p.FreqLo)
	dst = appendF64(dst, p.FreqHi)
	dst = appendF64(dst, p.DurLo)
	dst = appendF64(dst, p.DurHi)
	return appendF64(dst, p.CILevel)
}

func appendTotals(dst []byte, t Totals) []byte {
	dst = appendI64(dst, t.SessionsCreated)
	dst = appendI64(dst, t.SessionsFinished)
	dst = appendI64(dst, t.SessionRetries)
	dst = appendI64(dst, t.ProbesSent)
	dst = appendI64(dst, t.ProbesLost)
	dst = appendI64(dst, t.PacketsSent)
	dst = appendI64(dst, t.PacketsLost)
	dst = appendI64(dst, t.Experiments)
	return appendI64(dst, t.WriteFailures)
}

// frame wraps a payload already written at dst[start+recordOverhead:]
// by filling the length and CRC header in place. The caller reserves
// recordOverhead bytes at start before encoding the payload.
func frame(dst []byte, start int) []byte {
	payload := dst[start+recordOverhead:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// --- decode helpers: every read is bounds-checked, corruption returns
// errCorrupt instead of panicking or over-reading ---

var errCorrupt = fmt.Errorf("store: corrupt record")

type reader struct {
	b   []byte
	off int
	err bool
}

func (r *reader) fail() {
	r.err = true
}

func (r *reader) u64() uint64 {
	if r.err || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) byte() byte {
	if r.err || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) str() string {
	if r.err {
		return ""
	}
	n, w := binary.Uvarint(r.b[r.off:])
	if w <= 0 || n > uint64(len(r.b)-r.off-w) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off+w : r.off+w+int(n)])
	r.off += w + int(n)
	return s
}

func (r *reader) bytes() []byte {
	if r.err {
		return nil
	}
	n, w := binary.Uvarint(r.b[r.off:])
	if w <= 0 || n > uint64(len(r.b)-r.off-w) {
		r.fail()
		return nil
	}
	b := append([]byte(nil), r.b[r.off+w:r.off+w+int(n)]...)
	r.off += w + int(n)
	return b
}

func (r *reader) point() Point {
	p := Point{
		At:        r.i64(),
		SlotsDone: r.i64(),
		M:         r.i64(),
		Frequency: r.f64(),
		Duration:  r.f64(),
	}
	flags := r.byte()
	p.HasDuration = flags&1 != 0
	p.HasFreqCI = flags&2 != 0
	p.HasDurCI = flags&4 != 0
	p.ProbesSent = r.i64()
	p.ProbesLost = r.i64()
	p.PacketsSent = r.i64()
	p.PacketsLost = r.i64()
	p.Experiments = r.i64()
	p.FreqLo = r.f64()
	p.FreqHi = r.f64()
	p.DurLo = r.f64()
	p.DurHi = r.f64()
	p.CILevel = r.f64()
	return p
}

func (r *reader) totals() Totals {
	return Totals{
		SessionsCreated:  r.i64(),
		SessionsFinished: r.i64(),
		SessionRetries:   r.i64(),
		ProbesSent:       r.i64(),
		ProbesLost:       r.i64(),
		PacketsSent:      r.i64(),
		PacketsLost:      r.i64(),
		Experiments:      r.i64(),
		WriteFailures:    r.i64(),
	}
}

// record is one decoded WAL record (the union of all types).
type record struct {
	typ     byte
	id      string
	at      int64 // unixnano: created / transition instant
	seed    int64
	state   string
	term    bool
	errMsg  string
	retries int
	cfgJSON []byte
	point   Point
	totals  Totals
	// recFinal extras
	created, started, finished int64
}

// decodeRecord parses one framed payload (the bytes after length+CRC).
// It never panics and never reads past payload.
func decodeRecord(payload []byte) (record, error) {
	if len(payload) == 0 {
		return record{}, errCorrupt
	}
	r := &reader{b: payload, off: 1}
	rec := record{typ: payload[0]}
	switch rec.typ {
	case recCreated:
		rec.id = r.str()
		rec.at = r.i64()
		rec.seed = r.i64()
		rec.cfgJSON = r.bytes()
	case recState:
		rec.id = r.str()
		rec.at = r.i64()
		rec.state = r.str()
		rec.term = r.byte()&1 != 0
		rec.retries = int(r.u64())
		rec.seed = r.i64()
		rec.errMsg = r.str()
	case recPoint:
		rec.id = r.str()
		rec.point = r.point()
	case recTotals:
		rec.at = r.i64()
		rec.totals = r.totals()
	case recFinal:
		rec.id = r.str()
		rec.created = r.i64()
		rec.started = r.i64()
		rec.finished = r.i64()
		rec.seed = r.i64()
		rec.state = r.str()
		rec.term = r.byte()&1 != 0
		rec.retries = int(r.u64())
		rec.errMsg = r.str()
		rec.cfgJSON = r.bytes()
		rec.point = r.point()
	default:
		return record{}, errCorrupt
	}
	if r.err {
		return record{}, errCorrupt
	}
	return rec, nil
}

// scanSegment walks the framed records in a segment body (after the
// magic), calling fn for each valid record. It returns the byte offset
// of the end of the last valid record relative to the start of data —
// the truncation point for a torn tail — and whether the segment ended
// cleanly (no trailing garbage).
//
// Corruption (short header, impossible length, CRC mismatch, undecodable
// payload) ends the scan: the WAL guarantees a durable prefix, nothing
// after the first bad frame is trusted.
func scanSegment(data []byte, fn func(record)) (valid int, clean bool) {
	off := 0
	for {
		if off == len(data) {
			return off, true
		}
		if off+recordOverhead > len(data) {
			return off, false
		}
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecord || int(n) > len(data)-off-recordOverhead {
			return off, false
		}
		payload := data[off+recordOverhead : off+recordOverhead+int(n)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return off, false
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return off, false
		}
		if fn != nil {
			fn(rec)
		}
		off += recordOverhead + int(n)
	}
}

// pointCounts counts the point records of each session in a segment
// body. It walks the frames without checking them — replay only sizes
// series from it, and scanSegment still rejects what does not check — so
// a torn or corrupt tail just ends the count.
func pointCounts(data []byte) map[string]*int {
	// Counts sit behind pointers so that only a session's first record
	// stores a key; a lookup by converted bytes does not allocate.
	counts := make(map[string]*int)
	for off := 0; off+recordOverhead <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > maxRecord || n > len(data)-off-recordOverhead {
			break
		}
		p := data[off+recordOverhead : off+recordOverhead+n]
		if len(p) > 1 && p[0] == recPoint {
			if l, w := binary.Uvarint(p[1:]); w > 0 && l <= uint64(len(p)-1-w) {
				id := p[1+w : 1+w+int(l)]
				if c := counts[string(id)]; c != nil {
					*c++
				} else {
					one := 1
					counts[string(id)] = &one
				}
			}
		}
		off += recordOverhead + n
	}
	return counts
}

// timeOf converts a unixnano to time.Time, zero for zero.
func timeOf(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}
