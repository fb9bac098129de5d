package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sweep builds n cells whose values depend only on their descriptor-derived
// seed, mimicking a lab sweep cell.
func sweep(n int) []Cell {
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("cell/%d", i)
		cells[i] = Cell{Key: key, Run: func(_ context.Context, seed int64) (any, error) {
			rng := rand.New(rand.NewSource(seed))
			// A little arithmetic so cells finish out of order under
			// contention.
			sum := 0.0
			for j := 0; j < 1000; j++ {
				sum += rng.Float64()
			}
			return sum, nil
		}}
	}
	return cells
}

func values(t *testing.T, rs []Result) []float64 {
	t.Helper()
	out := make([]float64, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("cell %d (%s): %v", i, r.Key, r.Err)
		}
		if r.Index != i {
			t.Fatalf("result %d has index %d: submission order lost", i, r.Index)
		}
		out[i] = r.Value.(float64)
	}
	return out
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	cells := sweep(40)
	var want []float64
	for _, workers := range []int{1, 2, 8} {
		p := New(Config{Workers: workers})
		rs, sum, err := p.Run(context.Background(), cells)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Cells != 40 || sum.Failed != 0 {
			t.Fatalf("workers=%d: summary %+v", workers, sum)
		}
		got := values(t, rs)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ from workers=1", workers)
		}
	}
}

func TestSeedForStableAndDistinct(t *testing.T) {
	a := SeedFor("table4/CBR/p=0.3", 1)
	if b := SeedFor("table4/CBR/p=0.3", 1); b != a {
		t.Fatalf("seed not stable: %d vs %d", a, b)
	}
	if b := SeedFor("table4/CBR/p=0.5", 1); b == a {
		t.Error("distinct keys share a seed")
	}
	if b := SeedFor("table4/CBR/p=0.3", 2); b == a {
		t.Error("distinct base seeds share a seed")
	}
	if SeedFor("", 0) == 0 {
		t.Error("zero seed escaped")
	}
}

func TestResultsCarryDescriptorSeed(t *testing.T) {
	cells := []Cell{{Key: "k", Run: func(_ context.Context, seed int64) (any, error) {
		return seed, nil
	}}}
	rs, _, err := New(Config{Workers: 3, BaseSeed: 42}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	want := SeedFor("k", 42)
	if rs[0].Seed != want || rs[0].Value.(int64) != want {
		t.Errorf("seed %d handed %v, want %d", rs[0].Seed, rs[0].Value, want)
	}
}

func TestConcurrencyBoundedByWorkers(t *testing.T) {
	const workers = 3
	var running, peak int32
	cells := make([]Cell, 20)
	for i := range cells {
		cells[i] = Cell{Key: fmt.Sprintf("c%d", i), Run: func(context.Context, int64) (any, error) {
			n := atomic.AddInt32(&running, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if n <= old || atomic.CompareAndSwapInt32(&peak, old, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt32(&running, -1)
			return nil, nil
		}}
	}
	if _, _, err := New(Config{Workers: workers}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt32(&peak); p > workers {
		t.Errorf("observed %d concurrent cells, bound is %d", p, workers)
	}
}

func TestOnResultHookFiresPerCell(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	p := New(Config{Workers: 2, OnResult: func(r Result) {
		mu.Lock()
		defer mu.Unlock()
		if r.Elapsed < 0 {
			t.Errorf("cell %s: negative elapsed", r.Key)
		}
		seen[r.Key] = true
	}})
	rs, sum, err := p.Run(context.Background(), sweep(7))
	if err != nil || len(rs) != 7 || sum.Cells != 7 {
		t.Fatalf("run: %d results, %+v, %v", len(rs), sum, err)
	}
	if sum.Work <= 0 {
		t.Error("summary recorded no work time")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 7 {
		t.Errorf("hook saw %d cells, want 7", len(seen))
	}
}

func TestCellErrorsAreIsolated(t *testing.T) {
	boom := errors.New("boom")
	cells := sweep(4)
	cells[2] = Cell{Key: "bad", Run: func(context.Context, int64) (any, error) {
		return nil, boom
	}}
	rs, sum, err := New(Config{Workers: 2}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rs[2].Err, boom) {
		t.Errorf("cell 2 error = %v, want boom", rs[2].Err)
	}
	for _, i := range []int{0, 1, 3} {
		if rs[i].Err != nil {
			t.Errorf("cell %d poisoned by cell 2's error: %v", i, rs[i].Err)
		}
	}
	if sum.Failed != 1 {
		t.Errorf("summary failed = %d, want 1", sum.Failed)
	}
}

func TestTimeoutAbandonsSlowCell(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cells := []Cell{
		{Key: "slow", Run: func(context.Context, int64) (any, error) {
			<-release
			return nil, nil
		}},
		{Key: "fast", Run: func(context.Context, int64) (any, error) {
			return "ok", nil
		}},
	}
	p := New(Config{Workers: 1, Timeout: 20 * time.Millisecond})
	rs, sum, err := p.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rs[0].Err, context.DeadlineExceeded) {
		t.Errorf("slow cell err = %v, want deadline exceeded", rs[0].Err)
	}
	// The timed-out cell released its worker slot: the next cell ran.
	if rs[1].Err != nil || rs[1].Value != "ok" {
		t.Errorf("fast cell blocked behind abandoned one: %+v", rs[1])
	}
	if sum.Failed != 1 {
		t.Errorf("failed = %d, want 1", sum.Failed)
	}
}

func TestCancellationStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	var ran int32
	cells := make([]Cell, 30)
	for i := range cells {
		first := i == 0
		cells[i] = Cell{Key: fmt.Sprintf("c%d", i), Run: func(context.Context, int64) (any, error) {
			atomic.AddInt32(&ran, 1)
			if first {
				started <- struct{}{}
			}
			time.Sleep(time.Millisecond)
			return nil, nil
		}}
	}
	p := New(Config{Workers: 1})
	job := p.Start(ctx, cells)
	<-started
	cancel()
	rs, sum, err := job.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("job err = %v, want canceled", err)
	}
	if n := atomic.LoadInt32(&ran); int(n) == len(cells) {
		t.Error("cancellation never stopped the sweep")
	}
	canceled := 0
	for _, r := range rs {
		if errors.Is(r.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("no cell recorded the cancellation")
	}
	if sum.Failed != canceled {
		t.Errorf("failed = %d, canceled results = %d", sum.Failed, canceled)
	}
}

func TestPoolStatsAccumulateAcrossJobs(t *testing.T) {
	p := New(Config{Workers: 2})
	for i := 0; i < 3; i++ {
		if _, _, err := p.Run(context.Background(), sweep(5)); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Cells != 15 {
		t.Errorf("lifetime cells = %d, want 15", st.Cells)
	}
	if st.Worker != 2 {
		t.Errorf("workers = %d, want 2", st.Worker)
	}
}

func TestSummaryRendering(t *testing.T) {
	s := Summary{Cells: 10, Failed: 1, Wall: time.Second, Work: 3 * time.Second, Worker: 4}
	if s.Speedup() < 2.9 || s.Speedup() > 3.1 {
		t.Errorf("speedup = %.2f, want 3", s.Speedup())
	}
	out := s.String()
	for _, want := range []string{"10 cells", "1 failed", "4 workers", "3.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary %q missing %q", out, want)
		}
	}
}
