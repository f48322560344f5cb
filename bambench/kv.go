package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// kvSpec is a KVStore session workload: on each segment's session, an
// open-loop phase at a fixed rate, then a closed-loop phase with two
// clients.
type kvSpec struct {
	engine   string
	cores    int
	wal      bool
	feedSize int     // requests per feed, distinct keys
	putShare float64 // share of requests that are puts
	// rate is the open-loop request rate (requests per second), a
	// constant well below the capacity measured on a 2-CPU box.
	rate float64
	// tailPct is the latency percentile reported as the tail, taken
	// over the open-loop feeds of all segments pooled; a run has at
	// least ten feeds beyond it. Open-loop latency on a shared VM grows
	// with the CPU time the hypervisor gives to other guests, and the
	// higher the percentile, the faster: kv-bulk reports the upper
	// quartile, whose run-to-run spread stays within the bound at a
	// steal share where its p90's does not.
	tailPct float64
}

// KVStore session shape: 8 shards × 64 slots = 512 keys, of which keys
// 0..63 are written by the program's warm-up (version 1, value
// 31k+7). TagKey k routes to shard k mod 8, so keys 0..511 fill every
// shard exactly and no put can hit a full shard.
const (
	kvShards  = 8
	kvWarm    = 64
	kvKeys    = 512
	warmValue = 31 // warm key k holds 31k+7
)

func kvSessionRequest(spec *kvSpec) server.SessionRequest {
	return server.SessionRequest{
		Benchmark: "KVStore",
		Engine:    spec.engine,
		Cores:     spec.cores,
		Args:      []string{strconv.Itoa(kvShards), strconv.Itoa(kvWarm), "64"},
		Request: server.SessionRequestSpec{
			Class: "Request", Flag: "pending", TagType: "shard",
			DoneFlag: "replied", ReplyFields: []string{"reply", "version", "found"},
		},
	}
}

type kvOp struct{ op, key, val int } // op 1 = put, 0 = get

// kvGen generates one client's requests. Client c owns the keys k with
// (k/8) mod 2 == c — 32 on every shard — so the two clients never touch
// the same key and each client's model sees its keys' complete history,
// even on the concurrent engine, which does not order deliveries within
// an engine batch.
type kvGen struct {
	rng      *rand.Rand
	keys     []int
	putShare float64
}

func newKVGen(seed uint64, client int, putShare float64) *kvGen {
	g := &kvGen{rng: rand.New(rand.NewPCG(seed, uint64(client)+1)), putShare: putShare}
	for k := 0; k < kvKeys; k++ {
		if (k/kvShards)%clients == client {
			g.keys = append(g.keys, k)
		}
	}
	return g
}

// feed draws n requests on distinct keys.
func (g *kvGen) feed(n int) []kvOp {
	ops := make([]kvOp, n)
	for i := 0; i < n; i++ {
		j := i + g.rng.IntN(len(g.keys)-i) // partial Fisher-Yates: distinct keys
		g.keys[i], g.keys[j] = g.keys[j], g.keys[i]
		ops[i] = kvOp{key: g.keys[i], val: 1 + g.rng.IntN(1_000_000)}
		if g.rng.Float64() < g.putShare {
			ops[i].op = 1
		}
	}
	return ops
}

func feedItems(ops []kvOp) []server.FeedItem {
	items := make([]server.FeedItem, len(ops))
	for i, o := range ops {
		items[i] = server.FeedItem{
			Args:   []string{strconv.Itoa(o.op), strconv.Itoa(o.key), strconv.Itoa(o.val)},
			TagKey: int64(o.key),
		}
	}
	return items
}

// kvModel is one client's mirror of its keys: every put must return the
// next version and echo its value, every get the latest put.
type kvModel struct {
	ver, val map[int]int
	broken   map[int]bool // keys whose state is unknown after a failure
}

func newKVModel() *kvModel {
	m := &kvModel{ver: map[int]int{}, val: map[int]int{}, broken: map[int]bool{}}
	for k := 0; k < kvWarm; k++ {
		m.ver[k], m.val[k] = 1, warmValue*k+7
	}
	return m
}

func (m *kvModel) check(o kvOp, rep server.FeedReply) error {
	if m.broken[o.key] {
		return nil // already counted; its state is no longer known
	}
	err := m.apply(o, rep)
	if err != nil {
		m.broken[o.key] = true
	}
	return err
}

func (m *kvModel) apply(o kvOp, rep server.FeedReply) error {
	if !rep.Done {
		return fmt.Errorf("key %d: request not replied", o.key)
	}
	found, reply, version := rep.Fields["found"], rep.Fields["reply"], rep.Fields["version"]
	want := func(f, v string, w int) error {
		if v != strconv.Itoa(w) {
			return fmt.Errorf("key %d op %d: %s=%s, want %d", o.key, o.op, f, v, w)
		}
		return nil
	}
	if o.op == 1 {
		m.ver[o.key]++
		m.val[o.key] = o.val
		if err := want("found", found, 1); err != nil {
			return err
		}
	} else if m.ver[o.key] == 0 {
		return want("found", found, 0)
	} else if err := want("found", found, 1); err != nil {
		return err
	}
	if err := want("reply", reply, m.val[o.key]); err != nil {
		return err
	}
	return want("version", version, m.ver[o.key])
}

// feedRec is one feed as sent and answered.
type feedRec struct {
	client int
	id     int64
	ops    []kvOp
	// origin is where an open-loop feed's latency starts: its due time,
	// plus, if its client was idle then, up to timerSlack of the
	// client's wake-up lateness, which is the generator's own.
	origin   time.Time
	done     time.Time
	serverNS int64 // FeedResponse.LatencyNS
}

// kvLoad is the load on one session from two clients.
type kvLoad struct {
	spec   *kvSpec
	cl     *client.Client
	sess   string
	gens   []*kvGen
	models []*kvModel
	tally  *tally
	nextID atomic.Int64
	// tagOp, when set, marks a request context with its operation ID
	// (the traced run's span identifier).
	tagOp func(ctx context.Context, id int64, lane int) context.Context
	// sent counts requests sent; refused counts those rejected as
	// saturated, draining or past their deadline.
	sent, refused atomic.Int64
}

func newKVLoad(seed uint64, spec *kvSpec, t *tally) *kvLoad {
	k := &kvLoad{spec: spec, tally: t}
	for c := 0; c < clients; c++ {
		k.gens = append(k.gens, newKVGen(seed, c, spec.putShare))
	}
	return k
}

// attach points the load at a fresh session. The generators carry on,
// so each session gets the next inputs of the seed's streams.
func (k *kvLoad) attach(cl *client.Client, sess string) {
	k.cl, k.sess, k.models = cl, sess, nil
	for c := 0; c < clients; c++ {
		k.models = append(k.models, newKVModel())
	}
}

// send feeds ops for client c and checks every reply against c's model.
func (k *kvLoad) send(c int, ops []kvOp, rec *feedRec) {
	rec.client, rec.ops, rec.id = c, ops, k.nextID.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	if k.tagOp != nil {
		ctx = k.tagOp(ctx, rec.id, c)
	}
	k.sent.Add(int64(len(ops)))
	resp, err := k.cl.Feed(ctx, k.sess, server.FeedRequest{Requests: feedItems(ops)})
	rec.done = time.Now()
	if err == nil && len(resp.Replies) != len(ops) {
		err = fmt.Errorf("feed of %d got %d replies", len(ops), len(resp.Replies))
	}
	if err != nil {
		if client.IsCode(err, server.CodeSaturated) || client.IsCode(err, server.CodeDraining) ||
			client.IsCode(err, server.CodeDeadlineExceeded) {
			k.refused.Add(int64(len(ops)))
		}
		for _, o := range ops { // a put may or may not have applied
			k.models[c].broken[o.key] = true
		}
		k.tally.fail(len(ops), "feed: %v", err)
		return
	}
	rec.serverNS = resp.LatencyNS
	for i, o := range ops {
		if err := k.models[c].check(o, resp.Replies[i]); err != nil {
			k.tally.fail(1, "%v", err)
		} else {
			k.tally.ok(1)
		}
	}
}

// openLoop sends feeds on a fixed schedule for dur: client c's feeds are
// due every 2·feedSize/rate seconds, offset by half an interval from the
// other client's. A client with its previous feed still in flight sends
// late, and the feed's latency counts from its due time, so a stall is
// charged to every feed it delays. lag collects how late a client that
// was idle at the due time woke up.
func (k *kvLoad) openLoop(dur time.Duration) (recs []feedRec, lag samples) {
	interval := time.Duration(float64(time.Second) * float64(clients*k.spec.feedSize) / k.spec.rate)
	start := time.Now().Add(time.Millisecond)
	end := start.Add(dur)
	per := make([][]feedRec, clients)
	lags := make([]samples, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			due := start.Add(time.Duration(c) * interval / clients)
			for ; due.Before(end); due = due.Add(interval) {
				ops := k.gens[c].feed(k.spec.feedSize)
				rec := feedRec{origin: due}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					late := time.Since(due)
					lags[c] = append(lags[c], late)
					rec.origin = due.Add(min(late, timerSlack))
				}
				k.send(c, ops, &rec)
				per[c] = append(per[c], rec)
			}
		}(c)
	}
	wg.Wait()
	for c := range per {
		recs = append(recs, per[c]...)
		lag = append(lag, lags[c]...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].done.Before(recs[j].done) })
	return recs, lag
}

// closedLoop runs both clients back to back for dur and returns the
// feeds with the phase's wall time.
func (k *kvLoad) closedLoop(dur time.Duration) ([]feedRec, time.Duration) {
	start := time.Now()
	end := start.Add(dur)
	per := make([][]feedRec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				var rec feedRec
				k.send(c, k.gens[c].feed(k.spec.feedSize), &rec)
				per[c] = append(per[c], rec)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var recs []feedRec
	for c := range per {
		recs = append(recs, per[c]...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].done.Before(recs[j].done) })
	return recs, wall
}

// dueLatencies returns each open-loop feed's latency from its origin.
func dueLatencies(recs []feedRec) samples {
	out := make(samples, len(recs))
	for i, r := range recs {
		out[i] = r.done.Sub(r.origin)
	}
	return out.sorted()
}

func countReqs(recs []feedRec) int {
	n := 0
	for _, r := range recs {
		n += len(r.ops)
	}
	return n
}

// warmup precedes every measured open-loop phase.
//
// timerSlack is how late a sleeping client may wake through the
// generator's own fault: Go timers round sub-millisecond sleeps up to a
// millisecond. Lateness beyond it is charged to the feed's latency: on
// a shared host it mostly means the daemon held both CPUs, a stall the
// latency must count.
//
// lagBound is the generator's fidelity bound: an open-loop phase whose
// idle clients woke more than lagBound late at the 99th percentile did
// not offer the load it claims. Such a phase is marked invalid and the
// run fails instead of scoring it.
const (
	warmup     = 500 * time.Millisecond
	timerSlack = 2 * time.Millisecond
	lagBound   = 50 * time.Millisecond
)

// window is the closed loop's measuring window. Throughput and CPU per
// request are the medians over the phase's whole windows, so a passing
// stall on the shared host moves one window, not the result.
const window = 500 * time.Millisecond

// windows returns the request rate and the daemon CPU per request of
// each whole window between consecutive CPU samples (the last sample
// closes a partial window, which is left out).
func windows(recs []feedRec, cpu []cpuSample) (rates, cpuPerReq []float64) {
	for i := 0; i+2 < len(cpu); i++ {
		n := 0
		for _, r := range recs {
			if !r.done.Before(cpu[i].at) && r.done.Before(cpu[i+1].at) {
				n += len(r.ops)
			}
		}
		if n > 0 {
			rates = append(rates, float64(n)/cpu[i+1].at.Sub(cpu[i].at).Seconds())
			cpuPerReq = append(cpuPerReq, us(cpu[i+1].cpu-cpu[i].cpu)/float64(n))
		}
	}
	return rates, cpuPerReq
}

// kvSegments is how many of a run's set-up daemons carry a measurement
// segment, each on its fresh session. Pooling six daemons averages out
// how one process happened to land on the host. It also keeps each
// session short: the session heap grows about 1.7 KB per request served,
// and a session past ~200k requests spends enough time in garbage
// collection that its p90 latency rises by a quarter and swings from
// run to run. peak_rss_mb still shows the growth.
const kvSegments = 6

// kvPhases splits one segment's share of the measured seconds: three
// quarters open loop, where the latency samples come from, and one
// quarter closed loop, which needs fewer seconds for a steady rate.
func kvPhases(seconds float64) (open, closed time.Duration) {
	seg := time.Duration(seconds * float64(time.Second) / kvSegments)
	return seg - seg/4, seg / 4
}

// kvState is what measureKV leaves for the traced run.
type kvState struct {
	openP50      time.Duration // untraced open-loop p50, for the overhead
	bytesPerRec  float64       // mean WAL record size in the daemon's log
	appendsPerRq float64
}

// kvTotals pools the segments of one run.
type kvTotals struct {
	open, closed        []feedRec
	tails               []float64 // each segment's open-loop tail, ms
	lag                 samples
	rates, cpuPerReq    []float64 // closed-loop windows
	rss                 []float64 // VmHWM after each open loop
	rssEnd              float64
	closedWall, cpuUsed time.Duration
	reqs, appends       int64
	walBytes            int64
	feeds, engBatches   int64
	batchWindow         int
}

// segment runs the warm-up, the open loop and the closed loop on one
// fresh session of d.
func (t *kvTotals) segment(ctx context.Context, k *kvLoad, d *daemon, sess string, openDur, closedDur time.Duration) error {
	k.attach(d.cl, sess)
	k.openLoop(warmup)
	v0, err := d.cl.Varz(ctx)
	if err != nil {
		return err
	}
	wal0, sent0 := dirBytes(d.walDir), k.sent.Load()
	open, lag := k.openLoop(openDur)
	if p99 := lag.sorted().pct(0.99); p99 > lagBound {
		return fmt.Errorf("open-loop phase invalid: generator lag p99 %.1fms exceeds the %.0fms bound",
			ms(p99), ms(lagBound))
	}
	// The open loop's work is fixed (rate × time), so the memory high
	// water mark after it does not depend on how fast the closed loop
	// went: the session heap grows with every request served.
	rss, err := d.peakRSS()
	if err != nil {
		return err
	}
	v1, err := d.cl.Varz(ctx)
	if err != nil {
		return err
	}
	sampler := d.sampleCPU(window)
	closed, wall := k.closedLoop(closedDur)
	cpu, err := sampler.stop()
	if err != nil {
		return err
	}
	v2, err := d.cl.Varz(ctx)
	if err != nil {
		return err
	}
	sv, err := d.cl.Session(ctx, sess)
	if err != nil {
		return err
	}
	rssEnd, err := d.peakRSS()
	if err != nil {
		return err
	}
	rates, perReq := windows(closed, cpu)
	t.open = append(t.open, open...)
	t.tails = append(t.tails, ms(dueLatencies(open).pct(k.spec.tailPct)))
	t.closed = append(t.closed, closed...)
	t.lag = append(t.lag, lag...)
	t.rates = append(t.rates, rates...)
	t.cpuPerReq = append(t.cpuPerReq, perReq...)
	t.rss = append(t.rss, rss)
	t.rssEnd = max(t.rssEnd, rssEnd)
	t.closedWall += wall
	t.cpuUsed += cpu[len(cpu)-1].cpu - cpu[0].cpu
	t.reqs += k.sent.Load() - sent0
	if v0.WAL != nil && v2.WAL != nil {
		t.appends += v2.WAL.Appends - v0.WAL.Appends
		t.walBytes += dirBytes(d.walDir) - wal0
	}
	t.feeds += v2.Sessions.Feeds - v1.Sessions.Feeds
	t.engBatches += v2.Sessions.EngineBatches - v1.Sessions.EngineBatches
	t.batchWindow = sv.BatchWindow
	return nil
}

// measureKV runs the untraced phases against the daemon: one segment on
// each of the last kvSegments set-up daemons.
func measureKV(ctx context.Context, r *run, spec *kvSpec) error {
	r.report["engine"] = spec.engine
	r.report["cores"] = spec.cores
	r.report["wal"] = spec.wal
	r.report["feed_size"] = spec.feedSize
	r.report["put_share"] = spec.putShare
	r.report["open_loop_rate_req_per_s"] = spec.rate
	r.report["open_loop_lag_bound_ms"] = ms(lagBound)
	r.report["segments"] = kvSegments

	k := newKVLoad(r.seed, spec, &r.tally)
	openDur, closedDur := kvPhases(r.seconds)
	var t kvTotals
	var sess string
	err := r.bootDaemons(ctx, spec.wal, nil, kvSegments, func(d *daemon) error {
		cctx, cancel := context.WithTimeout(ctx, callTimeout)
		defer cancel()
		v, err := d.cl.CreateSession(cctx, kvSessionRequest(spec))
		sess = v.ID
		return err
	}, func(d *daemon) error {
		return t.segment(ctx, k, d, sess, openDur, closedDur)
	})
	if err != nil {
		return err
	}

	lat := dueLatencies(t.open)
	t.lag = t.lag.sorted()
	closedReqs := float64(countReqs(t.closed))
	rate, cpuPerReq := median(t.rates), median(t.cpuPerReq)
	if len(t.rates) < 3 { // too short for windows
		rate, cpuPerReq = closedReqs/t.closedWall.Seconds(), us(t.cpuUsed)/closedReqs
	}
	reqs := float64(t.reqs)
	r.e2e["ops_per_s"] = rate
	r.e2e["p50_ms"] = ms(lat.pct(0.5))
	r.e2e["tail_ms"] = ms(lat.pct(spec.tailPct))
	r.e2e["cpu_us_per_op"] = cpuPerReq
	r.e2e["peak_rss_mb"] = median(t.rss)

	r.layer["server.feeds_per_engine_batch"] = ratio(float64(t.feeds), float64(t.engBatches))
	r.layer["server.batch_window"] = float64(t.batchWindow)
	r.layer["server.rejected_frac"] = ratio(float64(k.refused.Load()), reqs)
	r.layer["wal.appends_per_op"] = float64(t.appends) / reqs
	r.layer["wal.bytes_per_op"] = float64(t.walBytes) / reqs
	r.layer["loadgen.lag_p99_ms"] = ms(t.lag.pct(0.99))
	r.kv = &kvState{openP50: lat.pct(0.5), bytesPerRec: ratio(float64(t.walBytes), float64(t.appends)),
		appendsPerRq: float64(t.appends) / reqs}

	r.report["open_loop_feeds"] = len(t.open)
	r.report["open_loop_tail_pct"] = spec.tailPct
	r.report["open_loop_feeds_beyond_tail"] = lat.beyond(spec.tailPct)
	r.report["open_loop_tail_ms_per_segment"] = t.tails
	r.report["open_loop_lag_samples"] = len(t.lag)
	r.report["open_loop_lag_p50_ms"] = ms(t.lag.pct(0.5))
	r.report["open_loop_lag_p99_ms"] = ms(t.lag.pct(0.99))
	r.report["closed_loop_feeds"] = len(t.closed)
	r.report["closed_loop_requests"] = closedReqs
	r.report["closed_loop_wall_s"] = t.closedWall.Seconds()
	r.report["closed_loop_mean_req_per_s"] = closedReqs / t.closedWall.Seconds()
	r.report["closed_loop_window_req_per_s"] = t.rates
	r.report["daemon_cpu_s"] = t.cpuUsed.Seconds()
	r.report["peak_rss_mb_per_segment"] = t.rss
	r.report["peak_rss_mb_at_end"] = t.rssEnd
	return nil
}
