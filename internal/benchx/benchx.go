// Package benchx is the repeatable performance-regression harness for
// the wire hot path. It measures loopback reflector throughput (batched vs
// the single-packet baseline), the streaming estimators' observe cost and
// the /metrics render cost, and emits them as one machine-readable report
// (BENCH_*.json) that CI diffs against a committed baseline. Pacing lag
// and session cost are measured by the repository benchmark (perfbench).
//
// Workloads are seeded and fixed-size, so two runs on the same machine
// measure the same packet schedule; absolute throughput still varies
// across machines, which is why the regression gate compares the
// batch/single *speedup ratio* rather than raw packets per second.
package benchx

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"badabing/internal/wire"
)

// Schema identifies the report layout for downstream tooling.
const Schema = "badabing-bench/1"

// Options sizes a harness run. The zero value selects the full-size
// workloads; Short selects CI-smoke sizes. Explicit fields override both
// (tests use tiny workloads).
type Options struct {
	// Short selects the CI smoke sizes (~5 s total instead of ~10 s).
	Short bool
	// Seed fixes every workload schedule.
	Seed int64
	// ReflectorWindow is the measured throughput window per mode.
	ReflectorWindow time.Duration
}

func (o *Options) applyDefaults() {
	if o.ReflectorWindow == 0 {
		o.ReflectorWindow = 1500 * time.Millisecond
		if o.Short {
			o.ReflectorWindow = 700 * time.Millisecond
		}
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// Report is the machine-readable result of one harness run.
type Report struct {
	Schema    string         `json:"schema"`
	GOOS      string         `json:"goos"`
	GOARCH    string         `json:"goarch"`
	CPUs      int            `json:"cpus"`
	Short     bool           `json:"short"`
	Reflector ReflectorBench `json:"reflector"`
	// Estimators is the streaming estimation stage: observe-path cost
	// per estimator kind.
	Estimators []EstimatorBench `json:"estimators,omitempty"`
	// Metrics is the observability stage: /metrics render cost and
	// hot-path instrument allocation pins over a daemon-shaped registry.
	Metrics *MetricsBench `json:"metrics,omitempty"`
}

// ReflectorBench compares echo-loop throughput between the batched
// (sendmmsg/recvmmsg, sharded) path and the single-packet baseline over
// the same loopback blast workload. Speedup — the machine-normalized
// ratio — is what the regression gate watches.
type ReflectorBench struct {
	Seconds   float64 `json:"seconds"`
	Shards    int     `json:"shards"`
	BatchPPS  float64 `json:"batch_pps"`
	SinglePPS float64 `json:"single_pps"`
	Speedup   float64 `json:"speedup"`
}

// RunAll runs the full harness and assembles the report.
func RunAll(opts Options) (Report, error) {
	opts.applyDefaults()
	rep := Report{
		Schema: Schema,
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Short:  opts.Short,
	}
	var err error
	if rep.Reflector, err = RunReflectorBench(opts); err != nil {
		return rep, fmt.Errorf("reflector bench: %w", err)
	}
	if rep.Estimators, err = RunEstimatorBench(opts); err != nil {
		return rep, fmt.Errorf("estimator bench: %w", err)
	}
	mb, err := RunMetricsBench(opts)
	if err != nil {
		return rep, fmt.Errorf("metrics bench: %w", err)
	}
	rep.Metrics = &mb
	return rep, nil
}

// blast floods addr with probe-sized datagrams until stop closes, using
// the batch writer unless disabled (the baseline mode must be the whole
// pre-batch data path, sender included).
func blast(addr string, disableBatch bool, stop <-chan struct{}, wg *sync.WaitGroup) error {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return err
	}
	frame := make([]byte, wire.HeaderSize)
	h := wire.Header{ExpID: 1, P: 0.3, N: 1 << 30, PktsPerProbe: 3,
		SlotWidth: 5 * time.Millisecond, Seed: 1, SendTime: time.Now().UnixNano()}
	if _, err := h.Marshal(frame); err != nil {
		conn.Close()
		return err
	}
	var bw wire.BatchWriter
	if !disableBatch {
		bw = wire.NewBatchWriter(conn)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer conn.Close()
		if bw != nil {
			ms := wire.MakeMessages(wire.MaxBatch)
			for i := range ms {
				ms[i].N = copy(ms[i].Buf, frame)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				bw.WriteBatch(ms)
			}
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			conn.Write(frame)
		}
	}()
	return nil
}

// reflectorPPS measures how many datagrams per second one reflector
// configuration absorbs from a sustained loopback blast.
func reflectorPPS(window time.Duration, disableBatch bool, shards int) (float64, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	r := wire.NewReflectorConfig(conn, wire.ReflectorConfig{
		Shards: shards, DisableBatch: disableBatch,
	})
	done := make(chan struct{})
	go func() {
		r.Run()
		close(done)
	}()
	defer func() {
		r.Close()
		<-done
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	// Two blasters keep even the sharded batch path saturated.
	for i := 0; i < 2; i++ {
		if err := blast(conn.LocalAddr().String(), disableBatch, stop, &wg); err != nil {
			return 0, err
		}
	}

	time.Sleep(window / 10) // warm up sockets and shard scheduling
	c0 := r.Packets()
	start := time.Now()
	time.Sleep(window)
	c1 := r.Packets()
	elapsed := time.Since(start).Seconds()
	return float64(c1-c0) / elapsed, nil
}

// reflectorTrials is how many times each reflector mode is measured; the
// best trial is reported. Max-of-N is the standard defence against
// scheduler interference: noise only ever subtracts throughput, so the
// maximum is the least-biased estimate of what the mode can do, and the
// regression gate's speedup ratio stops flapping with CI runner load.
const reflectorTrials = 3

// RunReflectorBench measures batch vs single-packet reflector throughput
// over identical blast workloads, best of reflectorTrials per mode.
func RunReflectorBench(opts Options) (ReflectorBench, error) {
	opts.applyDefaults()
	shards := wire.DefaultReflectorShards()
	rb := ReflectorBench{
		Seconds: opts.ReflectorWindow.Seconds(),
		Shards:  shards,
	}
	best := func(disableBatch bool, shards int) (float64, error) {
		var top float64
		for i := 0; i < reflectorTrials; i++ {
			pps, err := reflectorPPS(opts.ReflectorWindow, disableBatch, shards)
			if err != nil {
				return 0, err
			}
			if pps > top {
				top = pps
			}
		}
		return top, nil
	}
	var err error
	// Baseline first: the classic one-goroutine, one-syscall-per-packet
	// reflector this repo shipped before the batch rebuild.
	if rb.SinglePPS, err = best(true, 1); err != nil {
		return rb, err
	}
	if rb.BatchPPS, err = best(false, shards); err != nil {
		return rb, err
	}
	if rb.SinglePPS > 0 {
		rb.Speedup = rb.BatchPPS / rb.SinglePPS
	}
	return rb, nil
}
