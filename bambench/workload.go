package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/benchmarks"
)

// workload is one named traffic mix. Exactly one of kv and jobs is set.
type workload struct {
	name string
	why  string
	kv   *kvSpec
	jobs *jobsSpec
}

// workloads lists every runnable workload. BENCHMARK.json scores all but
// kv-durable: each of its requests is a chain of process wake-ups and an
// fsync, and on a shared 2-vCPU host its run-to-run spread exceeded the
// largest bound allowed (see README.md).
var workloads = []*workload{
	{
		name: "kv-durable",
		why:  "1-request KV feeds with the WAL on: per-request fixed costs (HTTP/JSON, admission, WAL fsync) dominate, the engine is a small share",
		kv: &kvSpec{
			engine: "deterministic", cores: 1, wal: true,
			feedSize: 1, putShare: 0.75, rate: 500, tailPct: 0.99,
		},
	},
	{
		name: "kv-bulk",
		why:  "192-request KV feeds on the concurrent engine, WAL off: guard matching, interpreter and work-stealing cost per request dominate; transport is amortised",
		kv: &kvSpec{
			engine: "concurrent", cores: 2, wal: false,
			feedSize: 192, putShare: 0.25, rate: 7680, tailPct: 0.75,
		},
	},
	{
		name: "jobs-churn",
		why:  "jobs over more program variants than the cache holds, WAL on: compile, layout synthesis and the interpreter dominate; serving and WAL costs are small",
		jobs: &jobsSpec{cores: 4, cacheEntries: 16, coldPerRound: 3, tailPct: 0.90},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// programNames lists the embedded programs in benchmarks.All() order.
func programNames() []string {
	var out []string
	for _, b := range benchmarks.All() {
		out = append(out, b.Name)
	}
	return out
}

func (w *workload) measure(ctx context.Context, r *run) error {
	if w.kv != nil {
		return measureKV(ctx, r, w.kv)
	}
	return measureJobs(ctx, r, w.jobs)
}

func (w *workload) trace(ctx context.Context, r *run) error {
	if w.kv != nil {
		return traceKV(ctx, r, w.kv)
	}
	return traceJobs(ctx, r, w.jobs)
}

// Both loads have at most this many requests in flight: the box has two
// CPUs, and the generator shares them with the daemon.
const clients = 2

// setupRepeats is how many times a run sets the daemon up; setup_s is
// the median.
const setupRepeats = 15

// bootDaemons starts the daemon setupRepeats times, each from a fresh
// WAL directory, timing exec → /healthz ok → ready(d) (e.g. the session
// created). The last `measured` daemons are handed to measure before
// they are stopped; the others are stopped at once.
func (r *run) bootDaemons(ctx context.Context, wal bool, args []string, measured int,
	ready, measure func(*daemon) error) error {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		walDir := ""
		if wal {
			walDir = filepath.Join(r.workdir, fmt.Sprintf("wal-%d", i))
		}
		start := time.Now()
		d, err := startDaemon(ctx, r.bambood, walDir, args)
		if err != nil {
			return err
		}
		if ready != nil {
			if err := ready(d); err != nil {
				d.stop()
				return fmt.Errorf("set-up: %w", err)
			}
		}
		times = append(times, time.Since(start).Seconds())
		if i >= setupRepeats-measured {
			err = measure(d)
		}
		d.stop()
		if err != nil {
			return err
		}
	}
	r.e2e["setup_s"] = median(times)
	r.report["setup_s_samples"] = times
	r.report["daemon_args"] = args
	return nil
}
