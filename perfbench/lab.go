package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"time"

	"badabing/internal/lab"
	"badabing/internal/runner"
)

// labHorizon is the shortened measurement horizon of every lab cell. At
// 5 s a round of the three tables is 12 cells and about 0.9 s of CPU:
// two infinite-TCP cells (about 0.33 s each), five CBR and five web
// cells (about 30 ms each).
const labHorizon = 5 * time.Second

// labScenarios are the scenarios the sweep's tables build testbeds for.
var labScenarios = []lab.Scenario{lab.InfiniteTCP, lab.CBRUniform, lab.Web}

// Set-up runs labSetupReps times before the timed run and
// labSetupsPerRound times after every round, so setup_s is a median over
// the whole run rather than over one moment of the host.
const (
	labSetupReps      = 51
	labSetupsPerRound = 4
)

// cellClass names a cell's scenario from its runner key.
func cellClass(key string) string {
	switch {
	case strings.HasPrefix(key, "zing/"):
		return "tcp"
	case strings.Contains(key, "CBR"):
		return "cbr"
	default:
		return "web"
	}
}

// cellRecord is one completed runner cell and the timed round it ran in.
type cellRecord struct {
	key, class string
	round      int
	elapsed    time.Duration
	err        error
}

// labSweep is the workload's state: a pool whose OnResult hook records
// every cell.
type labSweep struct {
	pool  *runner.Pool
	tr    *tracer
	mu    sync.Mutex
	cells []cellRecord
	// rounds counts the rounds started; a cell belongs to the latest.
	rounds int
	// parent maps a cell class to the open table span its runner cells
	// are recorded under.
	parent map[string]spanRef
}

func newLabSweep(nworkers int, tr *tracer) *labSweep {
	ls := &labSweep{tr: tr}
	ls.pool = runner.New(runner.Config{Workers: nworkers, OnResult: ls.onResult})
	return ls
}

func (ls *labSweep) onResult(r runner.Result) {
	class := cellClass(r.Key)
	now := time.Now()
	ls.mu.Lock()
	ls.cells = append(ls.cells, cellRecord{key: r.Key, class: class, round: ls.rounds - 1, elapsed: r.Elapsed, err: r.Err})
	parent := ls.parent[class]
	ls.mu.Unlock()
	ls.tr.record("runner.cell."+class, parent, now.Add(-r.Elapsed), now, 1)
}

// completed is the number of cells finished so far.
func (ls *labSweep) completed() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.cells)
}

// round runs Tables 1, 4 and 6 for one seed concurrently on the shared
// pool (the pool bounds the cells in flight) and returns the digest of
// their estimates.
func (ls *labSweep) round(seed int64, parent spanRef) uint64 {
	cfg := lab.RunConfig{Horizon: labHorizon, Seed: seed, Pool: ls.pool}
	sp := ls.tr.begin("lab.round", parent)
	defer sp.end()
	spans := map[string]spanRef{
		"tcp": ls.tr.begin("lab.Table1", sp),
		"cbr": ls.tr.begin("lab.Table4", sp),
		"web": ls.tr.begin("lab.Table6", sp),
	}
	ls.mu.Lock()
	ls.parent = spans
	ls.rounds++
	ls.mu.Unlock()

	var t1 lab.LossTable
	var t4, t6 lab.SweepTable
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); t1 = lab.Table1(cfg); spans["tcp"].end() }()
	go func() { defer wg.Done(); t4 = lab.Table4(cfg); spans["cbr"].end() }()
	go func() { defer wg.Done(); t6 = lab.Table6(cfg); spans["web"].end() }()
	wg.Wait()
	return digestTables(t1, t4, t6)
}

// digestTables hashes the Float64bits of every estimate in the tables, so
// two rounds agree only if every estimate is bit-identical.
func digestTables(t1 lab.LossTable, sweeps ...lab.SweepTable) uint64 {
	h := fnv.New64a()
	put := func(fs ...float64) {
		var b [8]byte
		for _, f := range fs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
	}
	for _, r := range t1.Rows {
		put(r.Frequency, r.DurMean, r.DurSD)
	}
	for _, t := range sweeps {
		for _, r := range t.Rows {
			put(r.P, r.TrueF, r.EstF, r.TrueD, r.EstD)
		}
	}
	return h.Sum64()
}

// labSetup builds the testbeds the sweep's tables run on, once per
// scenario, and returns the time taken.
func labSetup(seed int64, tr *tracer) time.Duration {
	sp := tr.begin("lab.setup", spanRef{})
	defer sp.end()
	start := time.Now()
	for _, sc := range labScenarios {
		ps := tr.begin("lab.NewPath", sp)
		lab.NewPath(sc, lab.RunConfig{Horizon: labHorizon, Seed: seed})
		ps.end()
	}
	return time.Since(start)
}

// labSeeds is how many fixed lab seeds one pass of the sweep covers.
const labSeeds = 4

// roundRecord is one timed round and its lab seed.
type roundRecord struct {
	seed int64
	interval
}

// runLabSweep is the lab-sweep workload: passes over the paper cells of
// Tables 1, 4 and 6 for labSeeds fixed lab seeds, at a shortened horizon
// on a one-worker pool, closed loop, until the measured time is up. A
// pass is labSeeds rounds, one per seed, starting at a rotation the
// workload seed picks; runs measure whole passes, so every run does the
// same cells and the figures do not hinge on one seed's heavy-tailed web
// transfers. Rounds of the same lab seed must give bit-identical
// estimates, and the first two rounds are repeated on a workers()-worker
// pool, which must too. The timed rounds use one worker because two
// workers on a 2-CPU host share cores and inflate each other's per-cell
// CPU, so cell cost would measure the pairing.
//
// The timings leave out the time a hypervisor took the worker's virtual
// CPU away (steal, read from /proc/stat around each round): on a shared
// host it came and went in phases of seconds to minutes, 0 to 40 % of
// wall time, and moved whole runs by a quarter. Each round's wall time
// is less its steal, and each cell's elapsed time is scaled by the
// share of its round the host left to it. Both are then taken as
// medians over repetitions of the same work: ops_per_s is the cells of
// a pass over the sum of each lab seed's median round time, and
// latency_p50_ms is the median over distinct cells of each cell's
// median elapsed time. Where the host reports no steal both are plain
// wall-clock figures.
func runLabSweep(ctx context.Context, o options) (*report, error) {
	rep := &report{Workload: "lab-sweep"}
	rot := int((o.seed%labSeeds + labSeeds) % labSeeds)
	labSeed := func(round int) int64 { return int64(1 + (rot+round)%labSeeds) }
	var setups []time.Duration
	for i := 0; i < labSetupReps; i++ {
		setups = append(setups, labSetup(labSeed(0), o.tr))
	}
	ls := newLabSweep(1, o.tr)

	heap := startHeapPeak()
	cpu0 := cpuSeconds()
	start := time.Now()
	var digests []uint64
	var rounds []roundRecord
	for len(rounds) == 0 || time.Since(start) < o.seconds {
		for i := 0; i < labSeeds; i++ {
			seed := labSeed(len(rounds))
			s0, t0 := cpuSteal(), time.Now()
			digests = append(digests, ls.round(seed, spanRef{}))
			rounds = append(rounds, roundRecord{seed, timed(s0, t0)})
			heap.lap()
			for j := 0; j < labSetupsPerRound; j++ {
				setups = append(setups, labSetup(labSeed(0), o.tr))
			}
		}
	}
	cpu := cpuSeconds() - cpu0
	peak := heap.finish()

	for i := labSeeds; i < len(digests); i++ {
		rep.check(digests[i] == digests[i-labSeeds], "round %d digest %016x != round %d digest %016x (lab seed %d)",
			i, digests[i], i-labSeeds, digests[i-labSeeds], labSeed(i))
	}
	// Repeat the first two rounds at workers() workers: estimates must
	// not depend on the worker count. The repeat's scheduling efficiency
	// is runner.busy_frac.
	nworkers := workers()
	par := newLabSweep(nworkers, o.tr)
	parStart := time.Now()
	for i := 0; i < 2; i++ {
		d := par.round(labSeed(i), spanRef{})
		rep.check(d == digests[i], "round %d: %d-worker digest %016x != 1-worker digest %016x", i, nworkers, d, digests[i])
	}
	parWall := time.Since(parStart)
	var parWork time.Duration
	for _, c := range par.cells {
		parWork += c.elapsed
	}

	var wall, steal float64
	bySeed := make(map[int64][]float64)
	for _, r := range rounds {
		wall += r.wall
		steal += r.steal
		bySeed[r.seed] = append(bySeed[r.seed], r.busy())
	}
	var passSeconds float64
	for _, xs := range bySeed {
		passSeconds += median(xs)
	}
	rep.infof("%d passes over lab seeds 1-%d at 1 worker, rounds 0-1 repeated at %d workers; digests %016x",
		len(rounds)/labSeeds, labSeeds, nworkers, digests[:labSeeds])
	rep.infof("host steal %.1f%% of the timed wall time", 100*steal/wall)

	var elapsed []float64
	byClass := make(map[string][]float64)
	byKey := make(map[string][]float64)
	for _, c := range ls.cells {
		rep.Attempted++
		if c.err != nil {
			rep.Failed++
			rep.Checks = append(rep.Checks, fmt.Sprintf("%s cell failed: %v", c.class, c.err))
			continue
		}
		ms := float64(c.elapsed) / 1e6 * rounds[c.round].share()
		elapsed = append(elapsed, ms)
		byClass[c.class] = append(byClass[c.class], ms)
		byKey[c.key] = append(byKey[c.key], ms)
	}
	cells := len(elapsed)
	if cells == 0 {
		return nil, fmt.Errorf("no lab cell completed")
	}
	var keyMedians []float64
	for _, xs := range byKey {
		keyMedians = append(keyMedians, median(xs))
	}
	perPass := float64(cells) / float64(len(rounds)/labSeeds)
	rep.e2e("setup_s", "s", medianSeconds(setups), len(setups), "median set-up: lab.NewPath per scenario")
	rep.e2e("ops_per_s", "1/s", perPass/passSeconds, len(rounds),
		"cells of a pass / sum over lab seeds of the median round time less steal")
	rep.e2e("cpu_us_per_op", "us", cpu/float64(cells)*1e6, cells, "process CPU per cell")
	rep.e2e("latency_p50_ms", "ms", median(keyMedians), len(keyMedians),
		"median over distinct cells of the median cell elapsed less steal")
	rep.e2e("peak_heap_mb", "MiB", peak, len(digests), "median over rounds of the round's peak live heap")

	rep.layer("runner.busy_frac", "ratio", parWork.Seconds()/(parWall.Seconds()*float64(nworkers)), len(par.cells),
		fmt.Sprintf("2 rounds: sum of cell elapsed / (wall x %d workers)", nworkers))
	rep.layer("lab.cell_p90_ms", "ms", quantile(elapsed, 0.9), cells, "p90 cell elapsed less steal, 1 worker")
	for _, class := range []string{"cbr", "tcp", "web"} {
		xs := byClass[class]
		rep.layer("runner.cell_s."+class, "s", quantile(xs, 0.5)/1e3, len(xs), "p50 Result.Elapsed less steal")
	}
	return rep, nil
}
