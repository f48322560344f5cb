// Command bambench is bambood's benchmark: one command that drives a
// named workload against a real bambood daemon, checks every reply, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a separate traced run) as one JSON object on the last line
// of standard output. See README.md for the workloads and metrics.
//
//	bash bambench/run.sh --workload kv-bulk --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric the benchmark reports, with
// its unit. BENCHMARK.json names the same metrics (a self-test checks
// that the two agree). Every run reports every metric of its mode; a
// per-layer metric whose layer a workload does not exercise reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = append([]metricDef{
	{"transport.rtt_us_p50", "us"},
	{"server.handler_self_us_p50", "us"},
	{"server.accept_to_reply_us_p50", "us"},
	{"server.accept_to_reply_us_p99", "us"},
	{"server.feeds_per_engine_batch", "count"},
	{"server.batch_window", "count"},
	{"server.job_queue_ms_p50", "ms"},
	{"server.job_queue_ms_p90", "ms"},
	{"server.job_run_ms_p50", "ms"},
	{"server.job_run_ms_p90", "ms"},
	{"server.cache_hit_frac", "share"},
	{"server.rejected_frac", "share"},
	{"wal.appends_per_op", "count"},
	{"wal.bytes_per_op", "B"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"bamboort.feed_us_per_req_p50", "us"},
	{"bamboort.sim_cycles_per_req", "cycles"},
	{"bamboort.lock_acquisitions_per_req", "count"},
	{"bamboort.contention_skips_per_req", "count"},
	{"bamboort.guard_rechecks_per_req", "count"},
	{"bamboort.pokes_per_req", "count"},
	{"bamboort.steal_success_frac", "share"},
	{"interp.ic_hit_frac", "share"},
	{"interp.fused_frac", "share"},
	{"synth.sim_speedup", "x"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.recon_gap_frac", "share"},
	{"trace.overhead_ms", "ms"},
}, perProgramMetrics()...)

type metricDef struct{ name, unit string }

// perProgramMetrics names the compile, synthesis and sequential-run time
// of each embedded program.
func perProgramMetrics() []metricDef {
	var out []metricDef
	for _, p := range programNames() {
		out = append(out,
			metricDef{"compile.ms." + p, "ms"},
			metricDef{"synth.ms." + p, "ms"},
			metricDef{"interp.seq_ms." + p, "ms"})
	}
	return out
}

// run holds one invocation's settings and accumulates its outcome.
type run struct {
	wl       *workload
	seed     uint64
	seconds  float64
	bambood  string
	workdir  string
	tally    tally
	e2e      map[string]float64
	layer    map[string]float64
	report   map[string]any
	traceOut string
	// State the untraced measurement leaves for the traced run.
	kv   *kvState
	jobs *jobsState
}

func main() {
	wlName := flag.String("workload", "", "workload name: kv-durable, kv-bulk or jobs-churn")
	seed := flag.Uint64("seed", 1, "workload seed (the inputs are a pure function of it)")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bambood := flag.String("bambood", "", "path of the bambood binary to benchmark")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory for WAL directories and traces")
	flag.Parse()

	wl := workloadByName(*wlName)
	if wl == nil {
		fatalf("unknown -workload %q (want one of %v)", *wlName, workloadNames())
	}
	if *bambood == "" {
		fatalf("-bambood is required")
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds > 0 and -trace 0 or 1")
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("%s-seed%d-trace%d-%d", wl.name, *seed, *trace, os.Getpid())))
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	r := &run{
		wl: wl, seed: *seed, seconds: *seconds, bambood: *bambood, workdir: dir,
		e2e: map[string]float64{}, layer: map[string]float64{}, report: map[string]any{},
	}
	ctx := context.Background()
	err = r.execute(ctx, *trace == 1)
	// The traced run's Chrome trace is the only file kept.
	if r.traceOut != "" {
		r.report["trace_file"] = r.traceOut
	}
	_ = os.RemoveAll(dir)
	if err != nil {
		// The report says why no result was scored, e.g. an open-loop
		// phase marked invalid by its generator lag.
		r.report["error"] = err.Error()
		printReport(r)
		fatalf("%s: %v", wl.name, err)
	}
	printReport(r)
	res := result{
		Correct:   r.tally.failed.Load() == 0,
		Attempted: r.tally.attempted.Load(),
		Failed:    r.tally.failed.Load(),
		Metrics:   map[string]metric{},
	}
	defs, vals := endToEnd, r.e2e
	if *trace == 1 {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bambench: %d of %d operations failed or returned wrong results (first: %s)\n",
			res.Failed, res.Attempted, r.tally.firstFailure())
		os.Exit(1)
	}
}

// execute runs the untraced measurement and, when traced, the traced run
// after it (the traced run needs the untraced latency for the overhead).
func (r *run) execute(ctx context.Context, traced bool) error {
	r.recordHost()
	total0, steal0 := hostCPU()
	err := r.wl.measure(ctx, r)
	total1, steal1 := hostCPU()
	// Time the hypervisor gave to other guests while this one wanted
	// the CPU, as a share of all CPU time of the measurement: a high
	// share means neighbours on a shared host slowed the run down.
	r.report["host_steal_frac"] = ratio(float64(steal1-steal0), float64(total1-total0))
	if err != nil {
		return err
	}
	if !traced {
		return nil
	}
	return r.wl.trace(ctx, r)
}

// recordHost notes what the numbers were measured on.
func (r *run) recordHost() {
	r.report["workload"] = r.wl.name
	r.report["why"] = r.wl.why
	r.report["seed"] = r.seed
	r.report["seconds"] = r.seconds
	r.report["nproc"] = runtime.NumCPU()
	r.report["generator_gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.report["daemon_gomaxprocs"] = daemonProcs()
	r.report["go_version"] = runtime.Version()
	r.report["workdir_fs"] = fsType(r.workdir)
}

// hostCPU returns the host's total and stolen CPU time in clock ticks,
// from the first line of /proc/stat (zero where it cannot be read).
func hostCPU() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user … steal; guest time is already in user
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// fsType names the filesystem holding dir (from statfs's magic number).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// printReport writes the run's context (host, rates, sample counts, lag,
// per-program breakdowns) as one JSON line, ahead of the result line.
func printReport(r *run) {
	r.report["fail_frac"] = r.tally.failFrac()
	r.report["attempted"] = r.tally.attempted.Load()
	r.report["failed"] = r.tally.failed.Load()
	if f := r.tally.firstFailure(); f != "" {
		r.report["first_failure"] = f
	}
	b, err := json.Marshal(map[string]any{"report": r.report})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bambench: "+format+"\n", args...)
	os.Exit(1)
}

// deadline bounds every network call of the generator: far above any
// healthy latency, so it only turns a hang into a counted failure.
const callTimeout = 30 * time.Second
