package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/wal"
)

// The traced run measures each layer from outside: it serves the
// workload from an in-process server.Open (the daemon's configuration)
// behind a timing handler, tags every request with its operation ID,
// and times each client call and each handler call. It then replays the
// workload's own inputs straight into the lower layers — feed batches
// into a standalone core.Session, record sizes into a fresh wal.Log,
// programs into core.Compile, System.Prepare and System.RunSequential —
// and times those calls too. All spans stay in memory and are written
// at the end with obsv's Chrome-trace exporter.

const opHeader = "X-Bench-Op"

// call is one timed call: a client round trip or a handler invocation,
// identified by its operation and its sequence number within it.
type call struct {
	op         int64
	n          int32
	lane       int
	start, end time.Time
}

func (c call) dur() time.Duration { return c.end.Sub(c.start) }

type callKey struct {
	op int64
	n  int32
}

type opKey struct{}

// opTrace rides in a request context: the operation's ID, its client
// lane, and a counter numbering its calls.
type opTrace struct {
	id    int64
	lane  int
	calls atomic.Int32
}

// tracer records spans in memory.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	// client and handler calls of the traced phase, and spans of the
	// replays into lower layers.
	client, handler []call
	spans           []obsv.Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) tag(ctx context.Context, id int64, lane int) context.Context {
	return context.WithValue(ctx, opKey{}, &opTrace{id: id, lane: lane})
}

// reset drops the calls recorded so far (the warm-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.client, t.handler = nil, nil
	t.mu.Unlock()
}

// span records a replay span on lane.
func (t *tracer) span(name string, lane int, id int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, obsv.Span{Task: name, Core: lane, Params: []int64{id},
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// wrap times every handler call that carries an operation header.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		op, n, lane, ok := parseOpHeader(r.Header.Get(opHeader))
		if !ok {
			return
		}
		t.mu.Lock()
		t.handler = append(t.handler, call{op: op, n: n, lane: lane, start: start, end: end})
		t.mu.Unlock()
	})
}

func parseOpHeader(h string) (op int64, n int32, lane int, ok bool) {
	f := strings.Split(h, ".")
	if len(f) != 3 {
		return 0, 0, 0, false
	}
	op, err1 := strconv.ParseInt(f[0], 10, 64)
	n64, err2 := strconv.ParseInt(f[1], 10, 32)
	lane, err3 := strconv.Atoi(f[2])
	return op, int32(n64), lane, err1 == nil && err2 == nil && err3 == nil
}

// transport tags each request of a traced operation and times the call
// from sending it until the client has read and closed the response.
type transport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ot, _ := req.Context().Value(opKey{}).(*opTrace)
	if ot == nil {
		return tt.base.RoundTrip(req)
	}
	c := call{op: ot.id, n: ot.calls.Add(1), lane: ot.lane}
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, fmt.Sprintf("%d.%d.%d", c.op, c.n, c.lane))
	c.start = time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		c.end = time.Now()
		tt.t.addClient(c)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		c.end = time.Now()
		tt.t.addClient(c)
	}}
	return resp, nil
}

func (t *tracer) addClient(c call) {
	t.mu.Lock()
	t.client = append(t.client, c)
	t.mu.Unlock()
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// pair is a client call with the handler call that served it.
type pair struct{ client, handler call }

func (p pair) rtt() time.Duration { return p.client.dur() - p.handler.dur() }

// pairs joins client and handler calls, grouped by operation in call
// order.
func (t *tracer) pairs() map[int64][]pair {
	t.mu.Lock()
	defer t.mu.Unlock()
	hs := map[callKey]call{}
	for _, h := range t.handler {
		hs[callKey{h.op, h.n}] = h
	}
	out := map[int64][]pair{}
	for _, c := range t.client {
		if h, ok := hs[callKey{c.op, c.n}]; ok {
			out[c.op] = append(out[c.op], pair{c, h})
		}
	}
	for _, ps := range out {
		sort.Slice(ps, func(i, j int) bool { return ps[i].client.n < ps[j].client.n })
	}
	return out
}

// writeChrome exports every span: client calls on lanes 0-1, handler
// calls on lanes 2-3, replays on lanes 4 and up.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	tr := &obsv.Trace{Source: "bambench", TimeUnit: obsv.UnitNanos}
	add := func(name string, lane int, c call) {
		tr.Events = append(tr.Events, obsv.Span{Task: name, Core: lane, Params: []int64{c.op},
			Start: c.start.Sub(t.t0).Nanoseconds(), End: c.end.Sub(t.t0).Nanoseconds()})
	}
	for _, c := range t.client {
		add("client.call", c.lane, c)
	}
	for _, h := range t.handler {
		add("server.handler", clients+h.lane, h)
	}
	tr.Events = append(tr.Events, t.spans...)
	t.mu.Unlock()
	sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].End < tr.Events[j].End })
	for i := range tr.Events {
		tr.Events[i].Index = i
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obsv.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Replay lanes in the Chrome trace.
const (
	laneEngine  = 2 * clients
	laneWAL     = laneEngine + 1 // and one more per appender
	laneCompile = laneWAL + clients
)

// inProcess serves srv behind the tracer on a loopback port.
type inProcess struct {
	srv  *server.Server
	hs   *http.Server
	cl   *client.Client
	errc chan error
}

func serveTraced(cfg server.Config, tr *tracer) (*inProcess, error) {
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	p := &inProcess{srv: srv, hs: &http.Server{Handler: tr.wrap(srv.Handler())}, errc: make(chan error, 1)}
	go func() { p.errc <- p.hs.Serve(ln) }()
	base := &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	p.cl = client.NewWithHTTPClient("http://"+ln.Addr().String(), newHTTPClient(&transport{base: base, t: tr}))
	return p, nil
}

// stop drains the server and waits for the listener goroutine.
func (p *inProcess) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = p.srv.Drain(ctx)
	_ = p.hs.Shutdown(ctx)
	<-p.errc
}

// traceFile is where a traced run's Chrome trace goes: next to the
// run's scratch directory, which is removed at exit.
func (r *run) traceFile() string {
	return filepath.Join(filepath.Dir(filepath.Dir(r.workdir)), "traces",
		fmt.Sprintf("%s-seed%d.json", r.wl.name, r.seed))
}

// ---- KV ----

func traceKV(ctx context.Context, r *run, spec *kvSpec) error {
	tr := newTracer()
	cfg := server.Config{}
	if spec.wal {
		cfg.WALDir = filepath.Join(r.workdir, "trace-wal")
	}
	p, err := serveTraced(cfg, tr)
	if err != nil {
		return err
	}
	cctx, cancel := context.WithTimeout(ctx, callTimeout)
	v, err := p.cl.CreateSession(cctx, kvSessionRequest(spec))
	cancel()
	if err != nil {
		p.stop()
		return fmt.Errorf("traced session: %w", err)
	}
	k := newKVLoad(r.seed, spec, &r.tally)
	k.attach(p.cl, v.ID)
	k.tagOp = tr.tag
	k.openLoop(warmup)
	tr.reset()
	openDur, _ := kvPhases(r.seconds)
	recs, _ := k.openLoop(openDur)
	p.stop()

	pairs := tr.pairs()
	var rtt, self, handler samples
	for _, rec := range recs {
		if ps := pairs[rec.id]; len(ps) == 1 {
			rtt = append(rtt, ps[0].rtt())
			handler = append(handler, ps[0].handler.dur())
			self = append(self, ps[0].handler.dur()-time.Duration(rec.serverNS))
		}
	}
	rtt, self, handler = rtt.sorted(), self.sorted(), handler.sorted()
	r.layer["transport.rtt_us_p50"] = us(rtt.pct(0.5))
	r.layer["server.handler_self_us_p50"] = us(self.pct(0.5))
	r.layer["server.accept_to_reply_us_p50"] = us(handler.pct(0.5))
	r.layer["server.accept_to_reply_us_p99"] = us(handler.pct(0.99))
	traced := dueLatencies(recs)
	r.layer["trace.overhead_ms"] = ms(traced.pct(0.5) - r.kv.openP50)
	r.report["traced_feeds"] = len(recs)
	r.report["traced_p50_ms"] = ms(traced.pct(0.5))

	b, err := benchmarks.Get("KVStore")
	if err != nil {
		return err
	}
	req := kvSessionRequest(spec)
	sys, prep, err := r.compileProgram(ctx, tr, b, spec.cores, defaultSeed, req.Args)
	if err != nil {
		return err
	}
	engineTime, err := r.replayFeeds(ctx, tr, sys, prep, spec, req, recs)
	if err != nil {
		return err
	}
	if err := r.simCycles(ctx, sys, prep, spec, req); err != nil {
		return err
	}
	var walMean time.Duration
	if spec.wal {
		if walMean, err = r.replayWAL(tr, r.kv.bytesPerRec); err != nil {
			return err
		}
	}

	// Reconcile along the blocking path of each feed: client call =
	// transport + handler self + WAL append + engine feed + what none
	// of them covers (coalescer wait, scheduling).
	var e2e, sum time.Duration
	for _, rec := range recs {
		ps := pairs[rec.id]
		if len(ps) != 1 {
			continue
		}
		e2e += ps[0].client.dur()
		walPart := time.Duration(r.kv.appendsPerRq * float64(len(rec.ops)) * float64(walMean))
		sum += ps[0].rtt() + ps[0].handler.dur() - time.Duration(rec.serverNS) + walPart + engineTime[rec.id]
	}
	r.reconcile(e2e, sum)
	r.traceOut = r.traceFile()
	return tr.writeChrome(r.traceOut)
}

// reconcile reports how far the layer self-times fall short of (or
// exceed) the end-to-end spans they should add up to.
func (r *run) reconcile(e2e, sum time.Duration) {
	r.layer["trace.recon_gap_frac"] = ratio(float64(e2e-sum), float64(e2e))
	r.report["recon_e2e_ms"] = ms(e2e)
	r.report["recon_layers_ms"] = ms(sum)
}

// compileProgram times core.Compile, System.Prepare (layout synthesis
// at cores, seed) and System.RunSequential for one program.
func (r *run) compileProgram(ctx context.Context, tr *tracer, b *benchmarks.Benchmark, cores int, seed int64, args []string) (*core.System, *core.Prepared, error) {
	t0 := time.Now()
	sys, err := core.Compile(b.Source, core.CompileOptions{})
	t1 := time.Now()
	if err != nil {
		return nil, nil, err
	}
	prep, err := sys.Prepare(ctx, core.PrepareConfig{Cores: cores, Seed: seed, Args: args})
	t2 := time.Now()
	if err != nil {
		return nil, nil, err
	}
	if _, err := sys.RunSequential(args, io.Discard); err != nil {
		return nil, nil, err
	}
	t3 := time.Now()
	tr.span("compile "+b.Name, laneCompile, 0, t0, t1)
	tr.span("synth "+b.Name, laneCompile, 0, t1, t2)
	tr.span("interp.seq "+b.Name, laneCompile, 0, t2, t3)
	r.layer["compile.ms."+b.Name] = ms(t1.Sub(t0))
	r.layer["synth.ms."+b.Name] = ms(t2.Sub(t1))
	r.layer["interp.seq_ms."+b.Name] = ms(t3.Sub(t2))
	return sys, prep, nil
}

func sessionEngine(name string) core.Engine {
	if name == "concurrent" {
		return core.Concurrent
	}
	return core.Deterministic
}

func injects(req server.SessionRequest, ops []kvOp) []bamboort.Inject {
	out := make([]bamboort.Inject, len(ops))
	for i, it := range feedItems(ops) {
		out[i] = bamboort.Inject{Class: req.Request.Class, Flag: req.Request.Flag, Args: it.Args,
			TagType: req.Request.TagType, TagKey: it.TagKey}
	}
	return out
}

// replayFeeds feeds the traced phase's batches, in the order they
// completed, into a standalone session on the workload's engine and
// cores, checks the replies again, and returns each feed's engine time.
func (r *run) replayFeeds(ctx context.Context, tr *tracer, sys *core.System, prep *core.Prepared,
	spec *kvSpec, req server.SessionRequest, recs []feedRec) (map[int64]time.Duration, error) {
	met := &obsv.Metrics{}
	sn, err := sys.StartSession(ctx, core.ExecConfig{Engine: sessionEngine(spec.engine), Machine: prep.Machine,
		Layout: prep.Layout, Args: req.Args, Out: io.Discard, Metrics: met})
	if err != nil {
		return nil, err
	}
	models := []*kvModel{newKVModel(), newKVModel()}
	times := map[int64]time.Duration{}
	var perReq samples
	reqs := 0
	for _, rec := range recs {
		t0 := time.Now()
		objs, err := sn.Feed(ctx, injects(req, rec.ops))
		t1 := time.Now()
		if err != nil {
			sn.Close()
			return nil, fmt.Errorf("replay feed: %w", err)
		}
		tr.span("bamboort.feed", laneEngine, rec.id, t0, t1)
		times[rec.id] = t1.Sub(t0)
		perReq = append(perReq, t1.Sub(t0)/time.Duration(len(rec.ops)))
		reqs += len(rec.ops)
		for i, o := range rec.ops {
			rep := core.RenderReply(objs[i], req.Request.DoneFlag, req.Request.ReplyFields)
			if err := models[rec.client].check(o, server.FeedReply{Done: rep.Done, Fields: rep.Fields}); err != nil {
				r.tally.fail(1, "replay: %v", err)
			}
		}
	}
	sn.Close()
	m := met.Snapshot()
	n := float64(reqs)
	perReq = perReq.sorted()
	r.layer["bamboort.feed_us_per_req_p50"] = us(perReq.pct(0.5))
	r.layer["bamboort.lock_acquisitions_per_req"] = float64(m.LockAcquisitions) / n
	r.layer["bamboort.contention_skips_per_req"] = float64(m.ContentionSkips) / n
	r.layer["bamboort.guard_rechecks_per_req"] = float64(m.GuardRechecks) / n
	r.layer["bamboort.pokes_per_req"] = float64(m.Pokes) / n
	r.layer["bamboort.steal_success_frac"] = ratio(float64(m.StealSuccesses), float64(m.StealAttempts))
	r.layer["interp.ic_hit_frac"] = ratio(float64(m.ICHits), float64(m.ICHits+m.ICMisses))
	r.layer["interp.fused_frac"] = ratio(float64(m.FusedInstrs), float64(m.FlatInstrs))
	r.report["replayed_requests"] = reqs
	return times, nil
}

// simRequests is the size of the fixed input prefix behind
// bamboort.sim_cycles_per_req.
const simRequests = 2048

// simCycles feeds the first simRequests requests of the seed's input,
// the two clients' feeds alternating, into a deterministic session at
// the workload's core count, and reports simulated cycles per request
// beyond boot. It is a pure function of seed and program.
func (r *run) simCycles(ctx context.Context, sys *core.System, prep *core.Prepared, spec *kvSpec, req server.SessionRequest) error {
	cfg := core.ExecConfig{Engine: core.Deterministic, Machine: prep.Machine, Layout: prep.Layout,
		Args: req.Args, Out: io.Discard}
	boot, err := sys.StartSession(ctx, cfg)
	if err != nil {
		return err
	}
	bootCycles := boot.Close().TotalCycles
	sn, err := sys.StartSession(ctx, cfg)
	if err != nil {
		return err
	}
	gens := []*kvGen{newKVGen(r.seed, 0, spec.putShare), newKVGen(r.seed, 1, spec.putShare)}
	n := 0
	for n < simRequests {
		for _, g := range gens {
			ops := g.feed(spec.feedSize)
			if _, err := sn.Feed(ctx, injects(req, ops)); err != nil {
				sn.Close()
				return err
			}
			n += len(ops)
		}
	}
	total := sn.Close().TotalCycles
	r.layer["bamboort.sim_cycles_per_req"] = float64(total-bootCycles) / float64(n)
	r.report["sim_requests"] = n
	return nil
}

// replayWAL appends records of the workload's mean record size to a
// fresh log on the benchmark's filesystem from two appenders for a
// fixed time, timing each Append (frame, buffer, group-commit fsync).
func (r *run) replayWAL(tr *tracer, recordBytes float64) (time.Duration, error) {
	size := int(recordBytes+0.5) - 8 // minus the length+CRC frame header
	if size < 1 {
		size = 1
	}
	l, _, err := wal.Open(wal.Options{Dir: filepath.Join(r.workdir, "replay-wal")})
	if err != nil {
		return 0, err
	}
	payload := []byte(strings.Repeat("x", size))
	const dur = time.Second
	end := time.Now().Add(dur)
	per := make([]samples, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for a := 0; a < clients; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := int64(0); time.Now().Before(end); i++ {
				t0 := time.Now()
				if err := l.Append(payload); err != nil {
					errs[a] = err
					return
				}
				t1 := time.Now()
				tr.span("wal.append", laneWAL+a, i, t0, t1)
				per[a] = append(per[a], t1.Sub(t0))
			}
		}(a)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		return 0, err
	}
	var all samples
	for a := range per {
		if errs[a] != nil {
			return 0, errs[a]
		}
		all = append(all, per[a]...)
	}
	all = all.sorted()
	r.layer["wal.append_us_p50"] = us(all.pct(0.5))
	r.layer["wal.append_us_p99"] = us(all.pct(0.99))
	r.report["wal_replay_appends"] = len(all)
	r.report["wal_replay_record_bytes"] = size
	return all.mean(), nil
}

// ---- jobs ----

func traceJobs(ctx context.Context, r *run, spec *jobsSpec) error {
	tr := newTracer()
	p, err := serveTraced(server.Config{WALDir: filepath.Join(r.workdir, "trace-wal"), CacheEntries: spec.cacheEntries}, tr)
	if err != nil {
		return err
	}
	j := &jobLoad{spec: spec, cl: p.cl, refs: r.jobs.refs, tally: &r.tally, gen: newJobGen(r.seed, spec.coldPerRound)}
	j.tagOp = tr.tag
	j.warm()
	tr.reset()
	recs, _, _ := j.closedLoop(time.Duration(r.seconds * float64(time.Second) / 2))
	p.stop()

	pairs := tr.pairs()
	var rtt, submit samples
	for _, rec := range recs {
		for i, pr := range pairs[rec.id] {
			rtt = append(rtt, pr.rtt())
			if i == 0 {
				submit = append(submit, pr.handler.dur())
			}
		}
	}
	rtt, submit = rtt.sorted(), submit.sorted()
	r.layer["transport.rtt_us_p50"] = us(rtt.pct(0.5))
	// A job's handler only queues it, so the handler has no self time
	// apart from accept-to-reply; handler_self_us_p50 stays 0 here.
	r.layer["server.accept_to_reply_us_p50"] = us(submit.pct(0.5))
	r.layer["server.accept_to_reply_us_p99"] = us(submit.pct(0.99))
	traced := jobLatencies(recs)
	r.layer["trace.overhead_ms"] = ms(traced.pct(0.5) - r.jobs.p50)
	r.report["traced_jobs"] = len(recs)
	r.report["traced_p50_ms"] = ms(traced.pct(0.5))

	// Replay every program at the hot variants' seed: compile, synthesis
	// at the job's core count, the sequential run, and the job's own run.
	type cost struct{ compile, synth, exec time.Duration }
	costs := map[string]cost{}
	for _, b := range benchmarks.All() {
		sys, prep, err := r.compileProgram(ctx, tr, b, spec.cores, defaultSeed, b.Args)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := sys.Exec(ctx, core.ExecConfig{Machine: prep.Machine, Layout: prep.Layout, Args: b.Args, Out: io.Discard}); err != nil {
			return err
		}
		t1 := time.Now()
		tr.span("exec "+b.Name, laneCompile, 0, t0, t1)
		costs[b.Name] = cost{compile: ms2d(r.layer["compile.ms."+b.Name]), synth: ms2d(r.layer["synth.ms."+b.Name]), exec: t1.Sub(t0)}
	}
	walMean, err := r.replayWAL(tr, r.jobs.bytesPerRec)
	if err != nil {
		return err
	}

	// Blocking path of a job: the submit call, the queue wait, compile
	// and synthesis on a miss, the run, the WAL appends, and the poll
	// that saw the terminal status. What is left is polling slack and
	// contention between the two jobs in flight.
	var e2e, sum time.Duration
	for _, rec := range recs {
		ps := pairs[rec.id]
		if rec.failed || len(ps) < 2 {
			continue
		}
		c := costs[rec.v.prog]
		part := ps[0].client.dur() + time.Duration(rec.view.QueueNS) + c.exec + ps[len(ps)-1].client.dur()
		if !rec.view.CacheHit {
			part += c.compile + c.synth
		}
		part += time.Duration(r.layer["wal.appends_per_op"] * float64(walMean))
		e2e += rec.done.Sub(rec.sent)
		sum += part
	}
	r.reconcile(e2e, sum)
	r.traceOut = r.traceFile()
	return tr.writeChrome(r.traceOut)
}

func ms2d(v float64) time.Duration { return time.Duration(v * 1e6) }
