package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/server/client"
)

// jobsSpec is the job-churn workload: a closed loop of two clients
// submitting (program × synthesis seed) variants of the embedded
// programs, with their default args, on the deterministic engine.
type jobsSpec struct {
	cores        int
	cacheEntries int // the daemon's -cache-entries
	// coldPerRound is how many never-seen variants each round adds to
	// the nine hot ones; they always miss the cache.
	coldPerRound int
	// tail_ms is the mean latency of the jobs beyond the tailPct
	// quantile. Job latencies cluster by program, several-fold apart,
	// so a single quantile jumps between clusters from run to run; the
	// mean of the slowest jobs does not.
	tailPct float64
}

// variant is one job: a program and the seed its layout is synthesized
// with. Distinct seeds are distinct cache entries.
type variant struct {
	prog string
	seed int64
	cold bool
}

// jobGen draws the job sequence. Each round is the nine programs at
// defaultSeed (the hot variants) plus coldPerRound programs at never-seen
// seeds, in a seeded random order; the cold programs come from a
// shuffled deck, so every program misses equally often. With
// -cache-entries above the round size the hot variants stay cached and
// exactly the cold ones miss, so the miss share is fixed.
//
// The workload seed picks the order and the deck. The synthesis seeds
// do not depend on it: synthesis time varies several-fold with the
// synthesis seed, and so does run time with the layout, so fixed seeds
// give every run the same work. The k-th cold variant of a program has
// synthesis seed coldSeedBase + 16k + (program index).
type jobGen struct {
	rng   *rand.Rand
	progs []string
	colds map[string]int64 // cold variants drawn so far, per program
	deck  []string
	round []variant
	cold  int
}

// defaultSeed is the daemon's default synthesis seed, which hot variants
// and KV sessions use; coldSeedBase is above it, so cold variants never
// hit.
const (
	defaultSeed  = 1
	coldSeedBase = 1 << 41
)

func newJobGen(seed uint64, coldPerRound int) *jobGen {
	return &jobGen{rng: rand.New(rand.NewPCG(seed, 0x6a6f6273)), progs: programNames(),
		colds: map[string]int64{}, cold: coldPerRound}
}

func (g *jobGen) coldSeed(p string) int64 {
	i := 0
	for i < len(g.progs) && g.progs[i] != p {
		i++
	}
	k := g.colds[p]
	g.colds[p]++
	return coldSeedBase + 16*k + int64(i)
}

func (g *jobGen) next() variant {
	if len(g.round) == 0 {
		for _, p := range g.progs {
			g.round = append(g.round, variant{prog: p, seed: defaultSeed})
		}
		for i := 0; i < g.cold; i++ {
			if len(g.deck) == 0 {
				g.deck = append(g.deck, g.progs...)
				g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
			}
			p := g.deck[len(g.deck)-1]
			g.deck = g.deck[:len(g.deck)-1]
			g.round = append(g.round, variant{prog: p, seed: g.coldSeed(p), cold: true})
		}
		g.rng.Shuffle(len(g.round), func(i, j int) { g.round[i], g.round[j] = g.round[j], g.round[i] })
	}
	v := g.round[0]
	g.round = g.round[1:]
	return v
}

func (g *jobGen) roundSize() int { return len(g.progs) + g.cold }

// reference is a program's expected output and 1-core cycle count,
// computed in the generator: the output on the sequential machine with
// the reference tree walker, the cycles on the 1-core Bamboo machine.
type reference struct {
	output  string
	cycles1 int64
}

func computeReferences() (map[string]reference, error) {
	refs := map[string]reference{}
	for _, b := range benchmarks.All() {
		sys, err := core.Compile(b.Source, core.CompileOptions{})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", b.Name, err)
		}
		var out strings.Builder
		if _, err := sys.Exec(context.Background(), core.ExecConfig{
			Machine: machine.Sequential(), Layout: layout.Single(sys.TaskNames()),
			Args: b.Args, Out: &out, NoFastDispatch: true,
		}); err != nil {
			return nil, fmt.Errorf("reference %s: %w", b.Name, err)
		}
		one, err := sys.RunSingleCoreBamboo(b.Args, io.Discard)
		if err != nil {
			return nil, fmt.Errorf("reference %s 1-core: %w", b.Name, err)
		}
		refs[b.Name] = reference{output: out.String(), cycles1: one.TotalCycles}
	}
	return refs, nil
}

var numRE = regexp.MustCompile(`[-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?`)

// floatTol is the relative tolerance for numbers in job output: runs on
// several cores reduce floating-point sums in another order than the
// sequential reference, which moves the last digits.
const floatTol = 1e-9

// outputsMatch compares program output token by token: text must be
// equal, numbers equal within floatTol.
func outputsMatch(got, want string) error {
	gn, wn := numRE.FindAllStringIndex(got, -1), numRE.FindAllStringIndex(want, -1)
	if len(gn) != len(wn) {
		return fmt.Errorf("output has %d numbers, reference %d", len(gn), len(wn))
	}
	gp, wp := 0, 0
	for i := range gn {
		if got[gp:gn[i][0]] != want[wp:wn[i][0]] {
			return fmt.Errorf("output text differs before number %d", i)
		}
		gs, ws := got[gn[i][0]:gn[i][1]], want[wn[i][0]:wn[i][1]]
		if gs != ws {
			g, err1 := strconv.ParseFloat(gs, 64)
			w, err2 := strconv.ParseFloat(ws, 64)
			if err1 != nil || err2 != nil || math.Abs(g-w) > floatTol*math.Max(math.Abs(w), 1e-300) {
				return fmt.Errorf("number %d: got %s, want %s", i, gs, ws)
			}
		}
		gp, wp = gn[i][1], wn[i][1]
	}
	if got[gp:] != want[wp:] {
		return fmt.Errorf("output text differs after the last number")
	}
	return nil
}

// jobRec is one job as submitted and observed.
type jobRec struct {
	id     int64
	v      variant
	sent   time.Time
	done   time.Time
	view   server.JobView
	failed bool
}

// jobLoad is the closed-loop job load from two clients.
type jobLoad struct {
	spec    *jobsSpec
	cl      *client.Client
	refs    map[string]reference
	tally   *tally
	mu      sync.Mutex
	gen     *jobGen
	nextID  atomic.Int64
	tagOp   func(ctx context.Context, id int64, lane int) context.Context
	refused atomic.Int64
}

// run submits one job, waits for its terminal status and checks it.
func (j *jobLoad) run(v variant, lane int) jobRec {
	rec := jobRec{id: j.nextID.Add(1), v: v}
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	if j.tagOp != nil {
		ctx = j.tagOp(ctx, rec.id, lane)
	}
	rec.sent = time.Now()
	sub, err := j.cl.SubmitJob(ctx, server.SubmitRequest{
		Benchmark: v.prog, Cores: j.spec.cores, Seed: v.seed, Engine: "deterministic",
	})
	if err == nil {
		rec.view, err = j.cl.AwaitJob(ctx, sub.ID)
	}
	rec.done = time.Now()
	switch {
	case err != nil:
		if client.IsCode(err, server.CodeSaturated) || client.IsCode(err, server.CodeDraining) {
			j.refused.Add(1)
		}
		err = fmt.Errorf("job %s/%d: %w", v.prog, v.seed, err)
	case rec.view.Status != server.StatusSucceeded || rec.view.Result == nil:
		err = fmt.Errorf("job %s/%d: %s %s", v.prog, v.seed, rec.view.Status, rec.view.Error)
	case rec.view.Result.OutputTruncated:
		err = fmt.Errorf("job %s/%d: output truncated", v.prog, v.seed)
	default:
		if e := outputsMatch(rec.view.Result.Output, j.refs[v.prog].output); e != nil {
			err = fmt.Errorf("job %s/%d: %w", v.prog, v.seed, e)
		}
	}
	if err != nil {
		rec.failed = true
		j.tally.fail(1, "%v", err)
	} else {
		j.tally.ok(1)
	}
	return rec
}

func (j *jobLoad) take() variant {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.gen.next()
}

// warm runs the first round to completion: it fills the cache with the
// hot variants before anything is timed.
func (j *jobLoad) warm() []jobRec {
	n := j.gen.roundSize()
	recs := make([]jobRec, n)
	var next atomic.Int64
	vs := make([]variant, n)
	for i := range vs {
		vs[i] = j.take()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				recs[i] = j.run(vs[i], c)
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// closedLoop runs both clients back to back for dur. gaps collects the
// generator's own time between a job's observed end and the client's
// next submission.
func (j *jobLoad) closedLoop(dur time.Duration) (recs []jobRec, wall time.Duration, gaps samples) {
	start := time.Now()
	end := start.Add(dur)
	per := make([][]jobRec, clients)
	pgaps := make([]samples, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var last time.Time
			for time.Now().Before(end) {
				rec := j.run(j.take(), c)
				if !last.IsZero() {
					pgaps[c] = append(pgaps[c], rec.sent.Sub(last))
				}
				last = rec.done
				per[c] = append(per[c], rec)
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for c := range per {
		recs = append(recs, per[c]...)
		gaps = append(gaps, pgaps[c]...)
	}
	return recs, wall, gaps.sorted()
}

// simSpeedup is the geometric mean, over the warm-up round's variants,
// of 1-core cycles ÷ the job's total cycles. The round is a pure
// function of the seed and cycles are deterministic, so the value
// repeats exactly for a seed.
func simSpeedup(warm []jobRec, refs map[string]reference) float64 {
	var logSum float64
	n := 0
	for _, r := range warm {
		if r.failed || r.view.Result == nil || r.view.Result.TotalCycles <= 0 {
			continue
		}
		logSum += math.Log(float64(refs[r.v.prog].cycles1) / float64(r.view.Result.TotalCycles))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

func jobLatencies(recs []jobRec) samples {
	var out samples
	for _, r := range recs {
		if !r.failed {
			out = append(out, r.done.Sub(r.sent))
		}
	}
	return out.sorted()
}

// jobsState is what measureJobs leaves for the traced run.
type jobsState struct {
	refs        map[string]reference
	p50         time.Duration
	bytesPerRec float64
}

func jobDaemonArgs(spec *jobsSpec) []string {
	return []string{"-cache-entries", strconv.Itoa(spec.cacheEntries)}
}

// measureJobs runs the untraced closed loop against the daemon.
func measureJobs(ctx context.Context, r *run, spec *jobsSpec) error {
	refs, err := computeReferences()
	if err != nil {
		return err
	}
	return r.bootDaemons(ctx, true, jobDaemonArgs(spec), 1, nil, func(d *daemon) error {
		return measureJobsOn(ctx, r, spec, refs, d)
	})
}

// measureJobsOn runs the warm-up round and the timed closed loop on d.
func measureJobsOn(ctx context.Context, r *run, spec *jobsSpec, refs map[string]reference, d *daemon) error {
	j := &jobLoad{spec: spec, cl: d.cl, refs: refs, tally: &r.tally, gen: newJobGen(r.seed, spec.coldPerRound)}
	warm := j.warm()
	v0, err := d.cl.Varz(ctx)
	if err != nil {
		return err
	}
	wal0 := dirBytes(d.walDir)
	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	recs, wall, gaps := j.closedLoop(time.Duration(r.seconds * float64(time.Second)))
	cpu1, err := d.cpuTime()
	if err != nil {
		return err
	}
	used := cpu1 - cpu0
	v1, err := d.cl.Varz(ctx)
	if err != nil {
		return err
	}
	wal1 := dirBytes(d.walDir)
	rss, err := d.peakRSS()
	if err != nil {
		return err
	}

	lat := jobLatencies(recs)
	n := float64(len(recs))
	r.e2e["ops_per_s"] = float64(len(lat)) / wall.Seconds()
	r.e2e["p50_ms"] = ms(lat.pct(0.5))
	r.e2e["tail_ms"] = ms(lat.tailMean(spec.tailPct))
	r.e2e["cpu_us_per_op"] = us(used) / n
	r.e2e["peak_rss_mb"] = rss

	var queue, runT samples
	for _, rec := range recs {
		queue = append(queue, time.Duration(rec.view.QueueNS))
		runT = append(runT, time.Duration(rec.view.RunNS))
	}
	queue, runT = queue.sorted(), runT.sorted()
	r.layer["server.job_queue_ms_p50"] = ms(queue.pct(0.5))
	r.layer["server.job_queue_ms_p90"] = ms(queue.pct(0.9))
	r.layer["server.job_run_ms_p50"] = ms(runT.pct(0.5))
	r.layer["server.job_run_ms_p90"] = ms(runT.pct(0.9))
	hits, misses := v1.Cache.Hits-v0.Cache.Hits, v1.Cache.Misses-v0.Cache.Misses
	r.layer["server.cache_hit_frac"] = ratio(float64(hits), float64(hits+misses))
	r.layer["server.rejected_frac"] = ratio(float64(j.refused.Load()), n)
	appends := float64(v1.WAL.Appends - v0.WAL.Appends)
	walBytes := float64(wal1 - wal0)
	r.layer["wal.appends_per_op"] = appends / n
	r.layer["wal.bytes_per_op"] = walBytes / n
	rt0, rt1 := v0.Runtime, v1.Runtime
	r.layer["interp.ic_hit_frac"] = ratio(float64(rt1.ICHits-rt0.ICHits), float64(rt1.ICHits-rt0.ICHits+rt1.ICMisses-rt0.ICMisses))
	r.layer["interp.fused_frac"] = ratio(float64(rt1.FusedInstrs-rt0.FusedInstrs), float64(rt1.FlatInstrs-rt0.FlatInstrs))
	r.layer["synth.sim_speedup"] = simSpeedup(warm, refs)
	r.layer["loadgen.lag_p99_ms"] = ms(gaps.pct(0.99))
	r.jobs = &jobsState{refs: refs, p50: lat.pct(0.5), bytesPerRec: ratio(walBytes, appends)}

	cold := 0
	for _, rec := range recs {
		if rec.v.cold {
			cold++
		}
	}
	r.report["engine"] = "deterministic"
	r.report["cores"] = spec.cores
	r.report["wal"] = true
	r.report["closed_loop_clients"] = clients
	r.report["jobs"] = len(recs)
	r.report["cold_jobs"] = cold
	r.report["round"] = fmt.Sprintf("%d hot + %d cold variants", len(programNames()), spec.coldPerRound)
	r.report["tail_pct"] = spec.tailPct
	r.report["jobs_beyond_tail"] = lat.beyond(spec.tailPct)
	r.report["tail_quantile_ms"] = ms(lat.pct(spec.tailPct))
	r.report["closed_loop_wall_s"] = wall.Seconds()
	r.report["daemon_cpu_s"] = used.Seconds()
	r.report["sim_speedup"] = r.layer["synth.sim_speedup"]
	type progStats struct {
		Jobs   int     `json:"jobs"`
		Cold   int     `json:"cold"`
		MeanMS float64 `json:"mean_ms"`
	}
	per := map[string]*progStats{}
	for _, rec := range recs {
		ps := per[rec.v.prog]
		if ps == nil {
			ps = &progStats{}
			per[rec.v.prog] = ps
		}
		ps.Jobs++
		if rec.v.cold {
			ps.Cold++
		}
		ps.MeanMS += ms(rec.done.Sub(rec.sent))
	}
	for _, ps := range per {
		ps.MeanMS /= float64(ps.Jobs)
	}
	r.report["per_program"] = per
	return nil
}
