package wire

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/session"
)

// refCollector is the collector as it was before its records became one
// slot-ordered slice: a map of per-slot pointers per session, copied
// whole by every assembly, and a skew fit that sorts its points. Only
// the parts that feed observations are kept.
type refCollector struct {
	sessions map[uint64]*refSession
}

type refSession struct {
	params  Header
	probes  map[int64]*refRec
	packets uint64
}

type refRec struct {
	got     int
	maxOWD  time.Duration
	maxLate time.Duration
}

func (c *refCollector) record(h *Header, now time.Time) {
	s := c.sessions[h.ExpID]
	if s == nil {
		s = &refSession{params: *h, probes: make(map[int64]*refRec)}
		c.sessions[h.ExpID] = s
	}
	s.packets++
	r := s.probes[h.Slot]
	if r == nil {
		r = &refRec{}
		s.probes[h.Slot] = r
	}
	r.got++
	owd := time.Duration(now.UnixNano() - h.SendTime)
	if owd > r.maxOWD {
		r.maxOWD = owd
	}
	scheduled := h.Start + h.Slot*int64(h.SlotWidth)
	if late := time.Duration(h.SendTime - scheduled); late > r.maxLate {
		r.maxLate = late
	}
}

func (c *refCollector) assembleObs(expID uint64, slots []int64, perProbe int, slotWidth time.Duration) (obs []badabing.ProbeObs, invalid map[int64]bool, skew Skew) {
	probes := make(map[int64]refRec)
	if s := c.sessions[expID]; s != nil {
		for slot, r := range s.probes {
			probes[slot] = *r
		}
	}
	lateLimit := slotWidth / 2
	obs = make([]badabing.ProbeObs, 0, len(slots))
	invalid = make(map[int64]bool)
	for _, slot := range slots {
		o := badabing.ProbeObs{
			Slot:        slot,
			SentPackets: perProbe,
			T:           time.Duration(slot) * slotWidth,
		}
		if r, ok := probes[slot]; ok {
			o.LostPackets = perProbe - r.got
			o.OWD = r.maxOWD
			if r.maxLate > lateLimit {
				invalid[slot] = true
			}
		} else {
			o.LostPackets = perProbe
		}
		if o.LostPackets < 0 {
			o.LostPackets = 0
		}
		obs = append(obs, o)
	}
	skew = refEstimateSkew(obs)
	correctSkew(obs, skew)
	badabing.InheritOWD(obs)
	return obs, invalid, skew
}

// refEstimateSkew is estimateSkew with the sort it used to run.
func refEstimateSkew(obs []badabing.ProbeObs) Skew {
	type pt struct{ t, d float64 }
	var pts []pt
	for _, o := range obs {
		if o.OWD > 0 {
			pts = append(pts, pt{t: o.T.Seconds(), d: o.OWD.Seconds()})
		}
	}
	if len(pts) < 8 {
		return Skew{}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].t < pts[j].t })
	span := pts[len(pts)-1].t - pts[0].t
	if span <= 0 {
		return Skew{}
	}
	const nWin = 16
	t0 := pts[0].t
	mins := make([]pt, 0, nWin)
	cur := -1
	for _, p := range pts {
		w := int((p.t - t0) / span * nWin)
		if w >= nWin {
			w = nWin - 1
		}
		if w != cur {
			mins = append(mins, p)
			cur = w
		} else if p.d < mins[len(mins)-1].d {
			mins[len(mins)-1] = p
		}
	}
	if len(mins) < 4 {
		return Skew{Windows: len(mins)}
	}
	var st, sd, stt, std float64
	for _, p := range mins {
		st += p.t
		sd += p.d
		stt += p.t * p.t
		std += p.t * p.d
	}
	n := float64(len(mins))
	den := n*stt - st*st
	if den == 0 {
		return Skew{Windows: len(mins)}
	}
	slope := (n*std - st*sd) / den
	return Skew{PPM: slope * 1e6, Windows: len(mins)}
}

// estimate is Collector.Estimate over the reference records.
func (c *refCollector) estimate(expID uint64, marker badabing.MarkerConfig, cfg estimate.Config) (estimate.Snapshot, SessionStats, error) {
	s := c.sessions[expID]
	params := s.params
	stats := SessionStats{Packets: s.packets, ProbesSeen: len(s.probes)}
	plans, err := badabing.Schedule(badabing.ScheduleConfig{
		P: params.P, N: params.N, Improved: params.Improved, Seed: params.Seed,
	})
	if err != nil {
		return estimate.Snapshot{}, stats, err
	}
	slots := badabing.ProbeSlots(plans)
	stats.ProbesPlanned = len(slots)
	obs, invalid, skew := c.assembleObs(expID, slots, int(params.PktsPerProbe), params.SlotWidth)
	stats.Skew = skew
	stats.LateInvalid = len(invalid)
	for _, o := range obs {
		stats.PacketsLost += o.LostPackets
	}
	snap, skipped, err := estimate.Batch(cfg, badabing.StreamConfig{Slot: params.SlotWidth},
		plans, session.MarkSlots(obs, invalid, marker))
	stats.Skipped = skipped
	return snap, stats, err
}

// refStream describes how a simulated path mangles a session's packets on
// their way to the collector. Probabilities are per packet unless noted.
type refStream struct {
	name      string
	dup       float64 // delivered twice
	swap      float64 // swapped with the packet behind it
	drop      float64 // lost alone, leaving a partial bunch
	probeLoss float64 // per probe: starts a run of 1-8 wholly lost probes
	holdEvery int     // every holdEvery-th probe has one packet held back 100 probes
	holdWhole bool    // ... or all of its packets
	late      float64 // per probe: sent more than slot/2 behind schedule
	ppm       float64 // receiver clock drift against the sender
}

var refStreams = []refStream{
	{name: "in-order"},
	{name: "duplicated", dup: 0.05},
	{name: "adjacent-swaps", swap: 0.1},
	{name: "held-back", holdEvery: 500},
	{name: "probe-held-back", holdEvery: 500, holdWhole: true},
	{name: "partial-bunches", drop: 0.05},
	{name: "probe-losses", probeLoss: 0.01},
	{name: "late-sends", late: 0.01},
	{name: "drift+80ppm", ppm: 80},
	{name: "drift-80ppm", ppm: -80},
}

const (
	refPerProbe = 3
	refSlot     = 5 * time.Millisecond
	refPktGap   = 30 * time.Microsecond
)

// play generates the session's packets in send order, passes them
// through the stream's impairments and delivers them. After the packets
// of probe i (and whatever the impairments release with them) are
// delivered, checkpoint(i) runs if i is a checkpoint index.
func (st refStream) play(rng *rand.Rand, base Header, slots []int64, checkpoints map[int]bool, deliver func(*Header, time.Time), checkpoint func(i int)) {
	type pkt struct {
		h   Header
		now time.Time
	}
	held := make(map[int][]pkt) // released before probe index key is emitted
	var swapped pkt             // waits for the packet behind it when hasSwapped
	hasSwapped := false
	emit := func(p pkt) {
		deliver(&p.h, p.now)
		if hasSwapped {
			hasSwapped = false
			deliver(&swapped.h, swapped.now)
		}
	}
	lostRun := 0
	for i, slot := range slots {
		for _, p := range held[i] {
			emit(p)
		}
		delete(held, i)
		if lostRun == 0 && st.probeLoss > 0 && rng.Float64() < st.probeLoss {
			lostRun = 1 + rng.Intn(8)
		}
		wholeLoss := lostRun > 0
		if wholeLoss {
			lostRun--
		}
		scheduled := base.Start + slot*int64(refSlot)
		lag := time.Duration(rng.Intn(200)) * time.Microsecond
		if st.late > 0 && rng.Float64() < st.late {
			lag = refSlot/2 + time.Duration(rng.Int63n(int64(2*refSlot)))
		}
		// Queueing: an episode of growing delay every 1000 slots.
		queue := time.Duration(0)
		if phase := slot % 1000; phase < 80 {
			queue = time.Duration(phase) * time.Millisecond
		}
		for k := 0; k < refPerProbe; k++ {
			h := base
			h.Slot = slot
			h.PktIdx = uint8(k)
			h.SendTime = scheduled + int64(lag) + int64(k)*int64(refPktGap)
			elapsed := float64(h.SendTime - base.Start)
			arrival := h.SendTime + int64(20*time.Millisecond+queue) +
				int64(rng.Intn(100))*int64(time.Microsecond) + int64(st.ppm*elapsed/1e6)
			p := pkt{h: h, now: time.Unix(0, arrival)}
			switch {
			case wholeLoss, st.drop > 0 && rng.Float64() < st.drop:
				continue
			case (k == 0 || st.holdWhole) && st.holdEvery > 0 && i%st.holdEvery == 0:
				held[i+100] = append(held[i+100], p)
				continue
			case !hasSwapped && st.swap > 0 && rng.Float64() < st.swap:
				swapped, hasSwapped = p, true
				continue
			}
			emit(p)
			if st.dup > 0 && rng.Float64() < st.dup {
				emit(p)
			}
		}
		if checkpoints[i] {
			checkpoint(i)
		}
	}
	if hasSwapped {
		deliver(&swapped.h, swapped.now)
	}
}

// filledCollector returns a collector holding an n-slot session (ExpID 1)
// whose every probe arrived in order, and the session's probe slots.
func filledCollector(n int64) (*Collector, []int64) {
	base := Header{ExpID: 1, PktsPerProbe: refPerProbe, P: 0.3, N: n,
		Improved: true, SlotWidth: refSlot, Seed: 1}
	slots := badabing.ProbeSlots(badabing.MustSchedule(badabing.ScheduleConfig{
		P: base.P, N: n, Improved: true, Seed: base.Seed,
	}))
	col := NewCollector(nopConn{})
	refStream{}.play(rand.New(rand.NewSource(1)), base, slots, nil, col.record, nil)
	return col, slots
}

// TestCollectorMatchesReference feeds the collector and the old map-based
// one the same impaired packet streams and requires every observation,
// skew fit, estimate, session statistic and per-slot count to be equal,
// at several prefixes of each session.
func TestCollectorMatchesReference(t *testing.T) {
	sizes := []int64{600, 60_000, 720_000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	marker := badabing.MarkerConfig{}
	for _, n := range sizes {
		for si, st := range refStreams {
			t.Run(fmt.Sprintf("%s/%d", st.name, n), func(t *testing.T) {
				base := Header{
					ExpID: uint64(si + 1), PktsPerProbe: refPerProbe, P: 0.3, N: n,
					Improved: true, SlotWidth: refSlot, Seed: int64(si) + n,
					Start: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano(),
				}
				slots := badabing.ProbeSlots(badabing.MustSchedule(badabing.ScheduleConfig{
					P: base.P, N: n, Improved: true, Seed: base.Seed,
				}))
				last := len(slots) - 1
				checkpoints := map[int]bool{last / 3: true, 2 * last / 3: true, last: true}
				if n == 720_000 {
					checkpoints = map[int]bool{last / 2: true, last: true}
				}

				col := NewCollector(nopConn{})
				ref := &refCollector{sessions: make(map[uint64]*refSession)}
				var packets, behind int
				newest := int64(-1)
				deliver := func(h *Header, now time.Time) {
					packets++
					if h.Slot < newest {
						behind++
					}
					newest = max(newest, h.Slot)
					col.record(h, now)
					ref.record(h, now)
				}
				checkpoint := func(i int) {
					emitted := slots[:i+1]
					obs, invalid, skew := col.AssembleObs(base.ExpID, emitted, refPerProbe, refSlot)
					wobs, winvalid, wskew := ref.assembleObs(base.ExpID, emitted, refPerProbe, refSlot)
					if !reflect.DeepEqual(obs, wobs) || !reflect.DeepEqual(invalid, winvalid) || skew != wskew {
						t.Fatalf("probe %d: AssembleObs diverged from the reference (skew %+v vs %+v, %d vs %d invalid)",
							i, skew, wskew, len(invalid), len(winvalid))
					}
					snap, ss, err := col.Estimate(base.ExpID, marker, estimate.Config{})
					wsnap, wss, werr := ref.estimate(base.ExpID, marker, estimate.Config{})
					if err != nil || werr != nil {
						t.Fatalf("probe %d: Estimate: %v, reference: %v", i, err, werr)
					}
					if ss != wss {
						t.Fatalf("probe %d: SessionStats %+v, reference %+v", i, ss, wss)
					}
					if !sameBits(reflect.ValueOf(snap), reflect.ValueOf(wsnap)) {
						t.Fatalf("probe %d: snapshot not Float64bits-identical:\n got %+v\nwant %+v", i, snap, wsnap)
					}
					rs := ref.sessions[base.ExpID]
					for slot := int64(0); slot < n; slot++ {
						want := 0
						if r := rs.probes[slot]; r != nil {
							want = r.got
						}
						if got := col.Received(base.ExpID, slot); got != want {
							t.Fatalf("probe %d: Received(slot %d) = %d, reference %d", i, slot, got, want)
						}
					}
				}
				st.play(rand.New(rand.NewSource(base.Seed)), base, slots, checkpoints, deliver, checkpoint)
				t.Logf("%d packets, %.4f%% behind a newer slot", packets, 100*float64(behind)/float64(packets))
			})
		}
	}
}

// sameBits reports whether a and b are equal with every float64 compared
// by its bits.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}
