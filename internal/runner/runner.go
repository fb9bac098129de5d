// Package runner is the parallel experiment engine behind the lab: it
// fans independent experiment cells (one scenario × parameter × seed
// combination each) out across a bounded set of workers and returns their
// results in submission order, so a sweep's output is bit-identical
// regardless of worker count or completion order.
//
// Determinism contract: a cell must derive all of its randomness from its
// own descriptor — either the seed the runner hands it (a stable hash of
// the cell key, see SeedFor) or seeds carried in the closure — and must
// never share mutable state with other cells. Under that contract the
// engine guarantees that Run(ctx, cells) yields identical Result values
// for any Workers setting, because cells are pure functions of their
// descriptors and results are reassembled by submission index.
package runner

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"time"
)

// Cell is one unit of experiment work: a stable descriptor plus the
// function that produces the cell's result. The seed passed to Run is
// SeedFor(Key, BaseSeed); cells that carry their own seeds may ignore it.
type Cell struct {
	// Key is the stable cell descriptor, e.g. "table4/CBR/p=0.3/seed=1".
	// It names the cell in progress output and derives its RNG stream.
	Key string
	// Run computes the cell. It must be self-contained: no shared
	// mutable state, all randomness seeded from its arguments.
	Run func(ctx context.Context, seed int64) (any, error)
}

// Result is the outcome of one cell.
type Result struct {
	// Index is the cell's submission position; results are returned
	// sorted by it.
	Index int
	// Key echoes the cell descriptor.
	Key string
	// Seed is the descriptor-derived seed the cell was offered.
	Seed int64
	// Value is Run's return value (nil on error).
	Value any
	// Err is Run's error, a timeout, or the cancellation cause.
	Err error
	// Elapsed is the cell's wall-clock execution time.
	Elapsed time.Duration
	// Worker is the worker slot (0..Workers-1) that ran the cell.
	Worker int
}

// Summary aggregates a job (or, via Pool.Stats, a pool's lifetime).
type Summary struct {
	Cells  int           // cells completed
	Failed int           // cells that returned an error (incl. timeouts/cancels)
	Wall   time.Duration // wall-clock time of the job
	Work   time.Duration // sum of per-cell elapsed times
	Worker int           // worker slots configured
}

// Speedup is the parallel efficiency observed: total work divided by
// wall-clock time. Serial execution reports ≈1.
func (s Summary) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Work) / float64(s.Wall)
}

func (s Summary) String() string {
	return fmt.Sprintf("%d cells (%d failed) on %d workers: %v wall, %v work, %.2fx speedup",
		s.Cells, s.Failed, s.Worker, s.Wall.Round(time.Millisecond),
		s.Work.Round(time.Millisecond), s.Speedup())
}

// Config parameterizes a Pool.
type Config struct {
	// Workers bounds concurrent cell executions across all jobs on the
	// pool. Default runtime.GOMAXPROCS(0).
	Workers int
	// Timeout bounds each cell's execution; zero means unbounded. A
	// timed-out cell's Result carries context.DeadlineExceeded; its
	// goroutine is abandoned (the simulator cannot be preempted) and
	// its worker slot is released so the sweep continues.
	Timeout time.Duration
	// BaseSeed is mixed into every cell's descriptor hash, so one knob
	// re-seeds a whole sweep without touching cell keys. Default 1.
	BaseSeed int64
	// OnResult, when set, is called for every completed cell on the
	// worker's goroutine (jobs may interleave). It must be safe for
	// concurrent use.
	OnResult func(Result)
}

// Pool executes cells with bounded concurrency. Multiple jobs may run on
// one pool concurrently; they share the worker slots.
type Pool struct {
	cfg   Config
	slots chan int // worker ids; capacity = Workers

	mu    sync.Mutex
	total Summary // lifetime aggregate across jobs (Wall left zero)
}

// New builds a pool.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.BaseSeed == 0 {
		cfg.BaseSeed = 1
	}
	p := &Pool{cfg: cfg, slots: make(chan int, cfg.Workers)}
	for i := 0; i < cfg.Workers; i++ {
		p.slots <- i
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.cfg.Workers }

// Stats returns the pool's lifetime aggregate: cells and work summed over
// every job completed so far (Wall is not meaningful across overlapping
// jobs and is reported zero).
func (p *Pool) Stats() Summary {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.total
	s.Worker = p.cfg.Workers
	return s
}

// Job is a running (or finished) batch of cells.
type Job struct {
	done    chan struct{}
	results []Result
	summary Summary
	err     error
}

// Wait blocks until every cell has finished (or been abandoned) and
// returns the results in submission order, the job summary, and the
// context's error if the job was cancelled.
func (j *Job) Wait() ([]Result, Summary, error) {
	<-j.done
	return j.results, j.summary, j.err
}

// Run is Start followed by Wait.
func (p *Pool) Run(ctx context.Context, cells []Cell) ([]Result, Summary, error) {
	return p.Start(ctx, cells).Wait()
}

// Start launches the cells and returns immediately. Config.OnResult sees
// results as they complete; Job.Wait returns them in submission order.
func (p *Pool) Start(ctx context.Context, cells []Cell) *Job {
	j := &Job{
		done:    make(chan struct{}),
		results: make([]Result, len(cells)),
	}
	if ctx == nil {
		ctx = context.Background()
	}
	go p.run(ctx, cells, j)
	return j
}

func (p *Pool) run(ctx context.Context, cells []Cell, j *Job) {
	start := time.Now()
	var wg sync.WaitGroup
	for i := range cells {
		i, c := i, cells[i]
		res := Result{Index: i, Key: c.Key, Seed: SeedFor(c.Key, p.cfg.BaseSeed)}
		// Acquire a worker slot (or give up on cancellation) before
		// spawning, so a huge sweep holds at most Workers goroutines.
		select {
		case <-ctx.Done():
			res.Err = ctx.Err()
			j.results[i] = res
			continue
		case worker := <-p.slots:
			res.Worker = worker
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { p.slots <- worker }()
				j.results[i] = p.runCell(ctx, c, res)
				if p.cfg.OnResult != nil {
					p.cfg.OnResult(j.results[i])
				}
			}()
		}
	}
	wg.Wait()
	j.err = ctx.Err()
	j.summary = Summary{Cells: len(cells), Wall: time.Since(start), Worker: p.cfg.Workers}
	for _, r := range j.results {
		j.summary.Work += r.Elapsed
		if r.Err != nil {
			j.summary.Failed++
		}
	}
	p.mu.Lock()
	p.total.Cells += j.summary.Cells
	p.total.Failed += j.summary.Failed
	p.total.Work += j.summary.Work
	p.mu.Unlock()
	close(j.done)
}

// runCell executes one cell, enforcing the per-cell timeout.
func (p *Pool) runCell(ctx context.Context, c Cell, res Result) Result {
	start := time.Now()
	if p.cfg.Timeout <= 0 {
		res.Value, res.Err = c.Run(ctx, res.Seed)
		res.Elapsed = time.Since(start)
		return res
	}
	cellCtx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	defer cancel()
	type outcome struct {
		value any
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := c.Run(cellCtx, res.Seed)
		ch <- outcome{v, err}
	}()
	select {
	case o := <-ch:
		res.Value, res.Err = o.value, o.err
	case <-cellCtx.Done():
		res.Err = fmt.Errorf("runner: cell %q: %w", c.Key, cellCtx.Err())
	}
	res.Elapsed = time.Since(start)
	return res
}

// SeedFor derives a cell's deterministic RNG seed from its descriptor: an
// FNV-1a hash of the key mixed with the base seed. Equal descriptors map
// to equal seeds on every platform and in every execution order; distinct
// descriptors get independent streams. The result is never zero, so it is
// safe for configs that treat zero as "use the default".
func SeedFor(key string, base int64) int64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}
