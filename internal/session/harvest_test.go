package session_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/lab"
	"badabing/internal/probe"
	"badabing/internal/session"
	"badabing/internal/session/simtransport"
	"badabing/internal/simnet"
)

// refMark is §6.1 marking as badabing.Mark computed it before it took
// send-order input: it sorts the probes by send time to collect the loss
// times and the OWDmax window, then marks every probe.
func refMark(obs []badabing.ProbeObs, cfg badabing.MarkerConfig) []bool {
	if cfg.MaxEstimates == 0 {
		cfg.MaxEstimates = 16
	}
	out := make([]bool, len(obs))
	if len(obs) == 0 {
		return out
	}
	var minOWD time.Duration
	first := true
	for _, o := range obs {
		if o.OWD == 0 {
			continue
		}
		if first || o.OWD < minOWD {
			minOWD = o.OWD
			first = false
		}
	}
	var lossTimes, est []time.Duration
	idx := make([]int, len(obs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return obs[idx[a]].T < obs[idx[b]].T })
	for _, i := range idx {
		if o := obs[i]; o.Lost() {
			lossTimes = append(lossTimes, o.T)
			if o.OWD > 0 {
				est = append(est, o.OWD-minOWD)
				if len(est) > cfg.MaxEstimates {
					est = est[1:]
				}
			}
		}
	}
	var owdMax time.Duration
	if len(est) > 0 {
		var sum time.Duration
		for _, e := range est {
			sum += e
		}
		owdMax = sum / time.Duration(len(est))
	}
	threshold := time.Duration((1 - cfg.Alpha) * float64(owdMax))
	for i, o := range obs {
		if o.Lost() {
			out[i] = true
			continue
		}
		if owdMax == 0 || o.OWD == 0 || o.OWD-minOWD < threshold {
			continue
		}
		j := sort.Search(len(lossTimes), func(j int) bool { return lossTimes[j] >= o.T })
		out[i] = (j < len(lossTimes) && lossTimes[j]-o.T <= cfg.Tau) || (j > 0 && o.T-lossTimes[j-1] <= cfg.Tau)
	}
	return out
}

// refMarkSlots is session.MarkSlots over refMark.
func refMarkSlots(obs []badabing.ProbeObs, invalid map[int64]bool, cfg badabing.MarkerConfig) map[int64]bool {
	marked := refMark(obs, cfg)
	bySlot := make(map[int64]bool, len(obs))
	for i, o := range obs {
		if !invalid[o.Slot] {
			bySlot[o.Slot] = bySlot[o.Slot] || marked[i]
		}
	}
	return bySlot
}

// refRun is session.Run as it was before a harvest step marked only the
// probes it feeds: every step re-marks the whole settled set with
// refMarkSlots and assembles the due experiments from that map. It
// returns every published update and the final marks.
func refRun(ctx context.Context, tr session.Transport, cfg session.Config) ([]session.Update, map[int64]bool, error) {
	if cfg.Slot == 0 {
		cfg.Slot = badabing.DefaultSlot
	}
	if cfg.StepSlots == 0 {
		cfg.StepSlots = 1000
	}
	if cfg.Settle == 0 {
		cfg.Settle = session.DefaultSettle
	}
	if cfg.Marker == (badabing.MarkerConfig{}) {
		cfg.Marker = badabing.RecommendedMarker(cfg.P, cfg.Slot)
	}
	plans, err := badabing.Schedule(badabing.ScheduleConfig{
		P: cfg.P, N: cfg.Slots, Improved: cfg.Improved, ExtendedFraction: cfg.ExtendedFraction, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	est, err := estimate.New(cfg.Estimator, badabing.StreamConfig{
		Slot: cfg.Slot, WindowSlots: cfg.WindowSlots, ExtendedPairs: cfg.ExtendedPairs,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := tr.Launch(ctx, badabing.ProbeSlots(plans)); err != nil {
		return nil, nil, err
	}
	var updates []session.Update
	fed, skip := 0, int64(0)
	horizon := time.Duration(cfg.Slots) * cfg.Slot
	step := time.Duration(cfg.StepSlots) * cfg.Slot
	for now := step; ; now += step {
		end := now >= horizon+cfg.Settle
		if end {
			now = horizon + cfg.Settle
		}
		if err := tr.AdvanceTo(ctx, now); err != nil {
			return nil, nil, err
		}
		obs, invalid := tr.Observations()
		cutoff := now - cfg.Settle
		if end {
			cutoff = now
		}
		settled := obs
		for i, o := range obs {
			if o.T > cutoff {
				settled = obs[:i]
				break
			}
		}
		var c session.Counters
		for _, o := range settled {
			c.ProbesSent++
			c.PacketsSent += int64(o.SentPackets)
			c.PacketsLost += int64(o.LostPackets)
			if o.LostPackets > 0 {
				c.ProbesLost++
			}
		}
		bySlot := refMarkSlots(settled, invalid, cfg.Marker)
		if end {
			est.Reset()
			fed, skip = 0, 0
		}
		feedCutoff := cutoff - cfg.Marker.Tau - cfg.Slot
		if end {
			feedCutoff = cutoff
		}
		due := fed
		for due < len(plans) && time.Duration(plans[due].Slot+int64(plans[due].Probes)-1)*cfg.Slot <= feedCutoff {
			due++
		}
		skip += int64(badabing.Assemble(plans[fed:due], bySlot, est.Observe))
		fed = due
		c.Experiments = int64(est.M())
		c.Skipped = skip
		slotsDone := min(int64(now/cfg.Slot), cfg.Slots)
		updates = append(updates, session.Update{Snapshot: est.Snapshot(), SlotsDone: slotsDone, Counters: c})
		if end {
			return updates, bySlot, nil
		}
	}
}

// TestHarvestMatchesReference runs the session engine beside refRun, the
// full re-marking harvester, over identical simulated paths: every
// published update and the final marks must agree exactly.
func TestHarvestMatchesReference(t *testing.T) {
	paths := []struct {
		name  string
		build func(seed int64) (*simnet.Sim, *simnet.Dumbbell)
	}{
		{"idle", func(int64) (*simnet.Sim, *simnet.Dumbbell) {
			s := simnet.New()
			return s, simnet.NewDumbbell(s, simnet.DumbbellConfig{})
		}},
		{"cbr", labPath(lab.CBRUniform)},
		{"cbr-mixed", labPath(lab.CBRMixed)},
		{"tcp", labPath(lab.InfiniteTCP)},
		{"web", labPath(lab.Web)},
	}
	shapes := []struct {
		name string
		cfg  session.Config
	}{
		{"p0.1/step1000/window", session.Config{P: 0.1, Improved: true, StepSlots: 1000, WindowSlots: 1500}},
		{"p0.3/step37/pairs", session.Config{P: 0.3, Improved: true, StepSlots: 37, ExtendedPairs: true}},
		{"p0.5/step200/basic", session.Config{P: 0.5, StepSlots: 200, WindowSlots: 1000}},
		{"p0.3/step113/ext0", session.Config{P: 0.3, Improved: true, StepSlots: 113, ExtendedFraction: badabing.Fraction(0)}},
	}
	// Each path meets every shape and every estimator kind once.
	for i, path := range paths {
		lost := false
		for j, kind := range estimate.Kinds() {
			shape := shapes[(i+j)%len(shapes)]
			seed := int64(10*i + j + 1)
			cfg := shape.cfg
			cfg.Slots = 6000
			cfg.Seed = seed
			cfg.Estimator = estimate.Config{Kind: kind}
			t.Run(fmt.Sprintf("%s/%s/%s", path.name, kind, shape.name), func(t *testing.T) {
				ctx := context.Background()
				var got []session.Update
				sim, d := path.build(seed)
				res, err := session.Run(ctx, simtransport.New(sim, d, 7, probe.BadabingConfig{}), cfg, func(u session.Update) {
					got = append(got, u)
				})
				if err != nil {
					t.Fatal(err)
				}
				sim, d = path.build(seed)
				want, wantMarked, err := refRun(ctx, simtransport.New(sim, d, 7, probe.BadabingConfig{}), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("published %d updates, reference %d", len(got), len(want))
				}
				for k := range want {
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Fatalf("update %d differs:\n got %+v\nwant %+v", k, got[k], want[k])
					}
				}
				if !reflect.DeepEqual(res.Marked, wantMarked) {
					t.Fatalf("final marks differ: %d slots, reference %d", len(res.Marked), len(wantMarked))
				}
				lost = lost || want[len(want)-1].Counters.ProbesLost > 0
			})
		}
		if path.name != "idle" && !lost {
			t.Errorf("no probe lost on the %s path: its marks were never tested against a loss", path.name)
		}
	}
}

func labPath(sc lab.Scenario) func(seed int64) (*simnet.Sim, *simnet.Dumbbell) {
	return func(seed int64) (*simnet.Sim, *simnet.Dumbbell) {
		p := lab.NewPath(sc, lab.RunConfig{Seed: seed})
		return p.Sim, p.D
	}
}

// TestDueMarksMatchMark: the marks a mid-run step gives the probes it
// feeds equal the full MarkSlots map's, and the pre-send-order marker's,
// over random send-order observations with losses, unknown delays and
// invalid slots.
func TestDueMarksMatchMark(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(300)
		obs := make([]badabing.ProbeObs, n)
		invalid := make(map[int64]bool)
		slot := int64(rng.Intn(5))
		for i := range obs {
			o := badabing.ProbeObs{Slot: slot, SentPackets: 3, T: time.Duration(slot) * badabing.DefaultSlot}
			switch r := rng.Intn(10); {
			case r < 2:
				o.LostPackets = 1 + rng.Intn(3)
			case r < 3:
				// unknown delay
			default:
				o.OWD = 50*time.Millisecond + time.Duration(rng.Intn(100))*time.Millisecond
			}
			if o.LostPackets > 0 && rng.Intn(2) == 0 {
				o.OWD = 50*time.Millisecond + time.Duration(rng.Intn(120))*time.Millisecond
			}
			if rng.Intn(20) == 0 {
				invalid[slot] = true
			}
			obs[i] = o
			slot += 1 + int64(rng.Intn(4))
		}
		// Plans over the settled slots and a few past them.
		var plans []badabing.Plan
		for s := int64(0); s < slot+3; s++ {
			if rng.Intn(3) == 0 {
				plans = append(plans, badabing.Plan{Slot: s, Probes: 2 + rng.Intn(2)})
			}
		}
		cfg := badabing.MarkerConfig{
			Alpha:        float64(rng.Intn(50)) / 100,
			Tau:          time.Duration(rng.Intn(60)) * time.Millisecond,
			MaxEstimates: rng.Intn(20),
		}
		full := session.MarkSlots(obs, invalid, cfg)
		if ref := refMarkSlots(obs, invalid, cfg); !reflect.DeepEqual(full, ref) {
			t.Fatalf("trial %d: MarkSlots differs from the sorting reference", trial)
		}
		due := session.MarkDue(obs, invalid, plans, cfg)
		want := make(map[int64]bool)
		for _, pl := range plans {
			for s := pl.Slot; s < pl.Slot+int64(pl.Probes); s++ {
				if b, ok := full[s]; ok {
					want[s] = b
				}
			}
		}
		if !reflect.DeepEqual(due, want) {
			t.Fatalf("trial %d: due marks %v, want %v", trial, due, want)
		}
	}
}
