package bamboort

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/depend"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obsv"
	"repro/internal/types"
)

// delivery is one message on a core's inbox: an object for a parameter set,
// or a poke (obj == nil) prompting a rescan after a remote unlock.
type delivery struct {
	task  *types.Task
	param int
	obj   *interp.Object
}

// ccore is one core of the concurrent runtime. mu guards the scheduler
// state — parameter sets, arrival sequencing, and the ready deque — so a
// thieving core can assemble and claim invocations from a victim's sets;
// the inbox is drained only by the owning worker (and by the coordinator
// in degraded drain mode).
type ccore struct {
	id    int
	inbox chan delivery
	// pokePending is set while a poke sits unconsumed in the inbox. A poke
	// only prompts a rescan, so senders suppress duplicates: the pending
	// poke guarantees a rescan is still coming. Cleared in receive, under
	// the consumer's inbox drain.
	pokePending atomic.Bool
	// mx and trc are the run's shared metrics collector and tracer; both
	// nil unless the caller asked for observability.
	mx  *obsv.Metrics
	trc *ctracer

	mu     sync.Mutex
	tasks  []*hostedTask
	arrSeq int64
	// deque is the bounded ready deque: hosted tasks whose assembled
	// candidate is in their scratch, oldest ready first. The owner pops
	// from the front (FIFO fairness), thieves pop from the back. A popped
	// candidate becomes an invocation and is re-validated (locks, guards),
	// so a stale entry is discarded, never executed.
	deque []*hostedTask
	// poisoned marks a core that exhausted an invocation's retry budget;
	// the run degrades to a sequential drain when any core is poisoned.
	poisoned bool

	// Executor-side state, touched only by the goroutine running this
	// core's dispatch loop (or by the coordinator once workers stopped):
	// recycled invocations, the per-invocation output buffer, and
	// per-task completion counts (indexed by hostedTask.idx, merged in
	// result).
	invs     invPool
	out      []byte
	tasksRun []int64
}

// ctracer records wall-clock spans for a concurrent run. Spans are
// appended in completion order under one mutex, which also guards the
// object -> producer-span map used to attach dependence edges. The mutex
// is uncontended relative to task execution (one append per invocation)
// and the tracer is nil when tracing is off, so the instrumented path
// costs a single nil check per invocation when disabled.
type ctracer struct {
	mu       sync.Mutex
	start    time.Time
	tr       *obsv.Trace
	producer map[int64]int // object ID -> span index that produced it
}

// now returns nanoseconds since the run started (the trace clock).
func (t *ctracer) now() int64 { return time.Since(t.start).Nanoseconds() }

// record appends one completed invocation. It must be called while the
// invocation's parameter locks are still held, so the producer map cannot
// change under the dependence-edge lookups, and before the objects are
// routed onward, so consumers always observe their producer's span.
func (t *ctracer) record(core int, inv *invocation, exec *interp.Exec, start, end int64) {
	t.mu.Lock()
	idx := len(t.tr.Events)
	sp := obsv.Span{
		Index: idx, Task: inv.ht.task.Name, Core: core,
		Start: start, End: end, Exit: exec.ExitID,
	}
	for i, o := range inv.objs {
		sp.Params = append(sp.Params, o.ID)
		prod, ok := t.producer[o.ID]
		if !ok {
			prod = -1
		}
		sp.Deps = append(sp.Deps, obsv.Dep{Obj: o.ID, Arrival: inv.objArrs[i], Producer: prod})
	}
	t.tr.Events = append(t.tr.Events, sp)
	for _, o := range inv.objs {
		t.producer[o.ID] = idx
	}
	for _, o := range exec.NewObjects {
		t.producer[o.ID] = idx
	}
	t.mu.Unlock()
}

// crun is the shared state of one concurrent execution.
type crun struct {
	prog *ir.Program
	dep  *depend.Result
	opts Options
	in   *interp.Interp

	cores []*ccore
	mx    *obsv.Metrics
	trc   *ctracer
	// taskNames is the program's sorted task list (hostedTask.idx order);
	// tagRoute caches CommonTagType per task.
	taskNames []string
	tagRoute  map[*types.Task]string

	// inFlight counts undelivered messages plus credits held by workers
	// that are draining or executing; quiescence is inFlight == 0.
	inFlight atomic.Int64
	// progress bumps on every delivery, completion, and contained failure
	// (the stall watchdog watches it).
	progress atomic.Int64
	nInv     atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	errMu  sync.Mutex
	runErr error

	rrMu sync.Mutex
	rr   map[rrKey]int

	// session marks a persistent-session run: single-parameter tag-guarded
	// tasks then route by tag hash (per-key shard affinity) instead of
	// round-robin. One-shot runs keep the round-robin placement.
	session bool

	// degraded flips when a core is poisoned: workers stop dispatching and
	// the coordinator drains the remaining work sequentially.
	degraded atomic.Bool

	// attempts tracks per-invocation dispatch attempts (keyed by task name
	// plus parameter object IDs) for bounded retry; entries are cleared on
	// success. Only injected faults are retried, so without an injector
	// every attempt is the first and the map stays empty.
	attemptMu sync.Mutex
	attempts  map[string]int
}

// RunConcurrent executes the program with real parallelism: one goroutine
// per layout core, channels as the on-chip network, and per-object mutexes
// implementing the runtime's parameter locks. It is not cycle accurate —
// it validates that the runtime protocol (guarded dispatch, lock-or-skip,
// tag routing, work stealing) is correct under true concurrency. Programs
// whose observable output is order-independent produce the same output as
// the deterministic engine.
//
// Scheduling: each core dispatches from a bounded deque of ready
// invocations assembled from its parameter sets, oldest ready first. When
// a core's local queue and guard matching both come up empty it probes
// other cores in random order and steals a ready invocation from the back
// of a victim's deque (opts.Sched configures the policy). A stolen
// invocation keeps the paper's transactional semantics: the thief acquires
// all parameter locks in canonical (ascending object ID) order,
// re-validates the guards, and only then claims the objects from the
// victim's parameter sets.
//
// Failure containment (opts.Fault): every attempt snapshots its parameter
// objects' flag/tag state before running; a panic — real or injected via
// the faultinject hook — is recovered, the snapshot is rolled back, and
// the invocation is retried with exponential backoff. Injected stalls that
// exceed the per-invocation timeout fail the attempt with ErrTimeout and
// retry the same way. When retries are exhausted the executing core is
// poisoned and the run degrades to a sequential drain on the coordinator;
// a stall watchdog converts a hung run into ErrDeadlock. The context
// cancels the run between invocations.
//
// Observability: when opts.Trace is non-nil the run records one wall-clock
// span (nanoseconds since run start) per invocation, with parameter object
// IDs and dependence edges, in the unified internal/obsv model — the
// measured counterpart of schedsim's predicted schedule. When opts.Metrics
// is non-nil the run additionally counts guard-matching work, lock
// acquisitions, lock-or-skip contention, guard rechecks, deliveries,
// pokes, sampled inbox depths, steal attempts/successes, retries,
// rollbacks, timeouts, recovered panics, and poisoned cores. Both default
// to nil and every instrumentation site is gated on a nil check, so
// observability costs nothing when off.
//
// Output: each invocation's program output is buffered and written in one
// piece when the invocation commits (dropped if the attempt fails), so
// lines from tasks running at the same time never interleave.
func RunConcurrent(ctx context.Context, prog *ir.Program, dep *depend.Result, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := newCrun(prog, dep, opts)
	if err != nil {
		return nil, err
	}
	r.injectStartup()
	return r.monitor(ctx)
}

// newCrun builds the shared run state, validates the layout, and starts
// the worker goroutines (idle until work arrives). Callers inject the
// startup object and drive the run to quiescence.
func newCrun(prog *ir.Program, dep *depend.Result, opts Options) (*crun, error) {
	if opts.Layout == nil {
		return nil, fmt.Errorf("bamboort: Layout is required")
	}
	if opts.MaxInvocations == 0 {
		opts.MaxInvocations = 50_000_000
	}
	in := interp.New(prog)
	in.Out = opts.Out
	if opts.MaxTaskCycles > 0 {
		in.MaxCycles = opts.MaxTaskCycles
	} else {
		in.MaxCycles = 10_000_000_000
	}
	if opts.NoFastDispatch {
		in.DisableFastDispatch()
	}
	if opts.Heap != nil {
		in.Heap = opts.Heap
	}

	var trc *ctracer
	if opts.Trace != nil {
		opts.Trace.Source = "concurrent"
		opts.Trace.TimeUnit = obsv.UnitNanos
		opts.Trace.NumCores = opts.Layout.NumCores
		opts.Trace.Metrics = opts.Metrics
		trc = &ctracer{start: time.Now(), tr: opts.Trace, producer: map[int64]int{}}
	}
	n := opts.Layout.NumCores
	taskNames := make([]string, 0, len(prog.Tasks))
	for _, fn := range prog.Tasks {
		taskNames = append(taskNames, fn.Task.Name)
	}
	sort.Strings(taskNames)
	r := &crun{
		prog: prog, dep: dep, opts: opts, in: in,
		cores:     make([]*ccore, n),
		mx:        opts.Metrics,
		trc:       trc,
		taskNames: taskNames,
		tagRoute:  commonTagTypes(prog),
		stop:      make(chan struct{}),
		rr:        map[rrKey]int{},
		attempts:  map[string]int{},
	}
	for i := range r.cores {
		r.cores[i] = &ccore{id: i, inbox: make(chan delivery, 1<<16), mx: opts.Metrics, trc: trc,
			tasksRun: make([]int64, len(taskNames))}
	}
	for ti, name := range taskNames {
		fn := prog.Funcs[ir.TaskKey(name)]
		cs := opts.Layout.Cores(name)
		if len(cs) > 1 && len(fn.Task.Params) > 1 && CommonTagVar(fn.Task) == "" {
			return nil, fmt.Errorf("bamboort: task %s cannot be replicated without a common tag", name)
		}
		for _, c := range cs {
			r.cores[c].tasks = append(r.cores[c].tasks, newHostedTask(fn, ti))
		}
	}

	r.wg.Add(n)
	for _, c := range r.cores {
		go r.worker(c)
	}
	return r, nil
}

// injectStartup routes the startup object into the live run.
func (r *crun) injectStartup() {
	startCl := r.prog.Info.Classes[types.StartupClass]
	so := r.in.Heap.NewObject(startCl)
	so.SetFlag(startCl.FlagIndex[types.StartupFlag], true)
	if f, ok := startCl.FieldByName["args"]; ok {
		so.Fields[f.Index] = interp.ArrV(r.in.Heap.NewStringArray(r.opts.Args))
	}
	r.route(so, 0)
}

// monitor drives a one-shot run: wait for quiescence, stop the workers,
// and build the result.
func (r *crun) monitor(ctx context.Context) (*Result, error) {
	if err := r.quiesce(ctx); err != nil {
		return nil, err
	}
	r.shutdown()
	if err := r.err(); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// quiesce is the coordinator loop: it waits for quiescence (no undelivered
// messages, no worker holding credits), watches for terminal errors,
// cancellation, degradation to sequential drain, and — when the fault
// policy arms it — the stall watchdog. On a nil return all work accepted
// so far has completed; r.stopped() then reports whether the workers
// survived (a degraded run drains its remaining work sequentially but
// cannot accept more).
func (r *crun) quiesce(ctx context.Context) error {
	lastProgress := r.progress.Load()
	lastMove := time.Now()
	stall := r.opts.Fault.StallTimeout
	for {
		if err := r.err(); err != nil {
			r.shutdown()
			return err
		}
		if r.degraded.Load() {
			r.shutdown()
			return r.drainSequential()
		}
		if err := ctx.Err(); err != nil {
			r.shutdown()
			return fmt.Errorf("bamboort: run canceled: %w", err)
		}
		if r.inFlight.Load() == 0 {
			// A poisoning worker stores the degraded flag before releasing
			// its credits, so re-checking here cannot miss a degradation
			// that drained inFlight to zero.
			if r.degraded.Load() {
				continue
			}
			return nil
		}
		if stall > 0 {
			if p := r.progress.Load(); p != lastProgress {
				lastProgress, lastMove = p, time.Now()
			} else if time.Since(lastMove) > stall {
				r.shutdown()
				return fmt.Errorf("%w: no progress for %v with %d messages or credits outstanding",
					ErrDeadlock, stall, r.inFlight.Load())
			}
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// result finalizes a successful run: it folds the interpreter's dispatch
// statistics into the run's metrics and, when the run owns its heap, hands
// the arena back to the process-wide pools before building the Result.
func (r *crun) result() *Result {
	if m := r.mx; m != nil {
		st := r.in.Stats()
		m.ICHits.Add(st.ICHits)
		m.ICMisses.Add(st.ICMisses)
		m.FlatInstrs.Add(st.FlatInstrs)
		m.FusedInstrs.Add(st.FusedInstrs)
		m.ArenaReusedBytes.Add(st.ArenaReusedBytes)
	}
	if r.opts.Heap == nil {
		r.in.Heap.Release()
	}
	tasksRun := map[string]int64{}
	for _, c := range r.cores {
		for i, n := range c.tasksRun {
			if n > 0 {
				tasksRun[r.taskNames[i]] += n
			}
		}
	}
	return &Result{Invocations: r.nInv.Load(), TasksRun: tasksRun}
}

// shutdown stops the workers and waits for them to exit.
func (r *crun) shutdown() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *crun) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// sleep waits d, cut short by shutdown.
func (r *crun) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.stop:
	}
}

// fail records the run's first terminal error.
func (r *crun) fail(err error) {
	r.errMu.Lock()
	if r.runErr == nil {
		r.runErr = err
	}
	r.errMu.Unlock()
}

func (r *crun) err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.runErr
}

func (r *crun) send(dst int, d delivery) {
	r.inFlight.Add(1)
	r.cores[dst].inbox <- d
}

// poke sends an empty wakeup to target unless one is already sitting
// unconsumed in its inbox. The sender must publish the state the wakeup
// advertises (released locks, re-filed work) before calling: if the CAS
// fails, the pending poke's consumer clears the flag before it rescans,
// so the atomic order flag-read → flag-clear → rescan guarantees the
// rescan observes that state — the wakeup is absorbed, not lost.
func (r *crun) poke(target *ccore) {
	if !target.pokePending.CompareAndSwap(false, true) {
		if r.mx != nil {
			r.mx.PokesSuppressed.Add(1)
		}
		return
	}
	r.send(target.id, delivery{})
}

// route delivers obj to every task parameter its current state can
// satisfy, per the layout (tag-hash for replicated joins, locality-
// staggered round-robin otherwise).
func (r *crun) route(obj *interp.Object, fromCore int) {
	// route runs concurrently on worker goroutines, so the key scratch is
	// per-call; the fixed arrays cover typical tag fan-out without growth.
	var tagArr [8]depend.TagEntry
	var keyArr [96]byte
	consumers, _, _ := consumersOf(r.dep, obj, tagArr[:0], keyArr[:0])
	for _, pr := range consumers {
		cs := r.opts.Layout.Cores(pr.Task.Name)
		if len(cs) == 0 {
			continue
		}
		var dst int
		switch {
		case len(cs) == 1:
			dst = cs[0]
		default:
			dst = -1
			if tagType := r.tagRoute[pr.Task]; tagType != "" && (len(pr.Task.Params) > 1 || r.session) {
				if tag := firstTagOf(obj, tagType); tag != nil {
					dst = cs[int(tag.ID)%len(cs)]
				}
			}
			if dst < 0 {
				key := rrKey{from: fromCore, task: pr.Task.Name}
				r.rrMu.Lock()
				dst = cs[(r.rr[key]+fromCore)%len(cs)]
				r.rr[key]++
				r.rrMu.Unlock()
			}
		}
		r.send(dst, delivery{task: pr.Task, param: pr.Param, obj: obj})
	}
}

// worker is one core's scheduler loop: drain the inbox into the parameter
// sets, dispatch local ready work oldest first, and steal when idle.
// Credits (one per received delivery, one per steal execution) keep
// quiescence detection from observing a transient zero.
func (r *crun) worker(c *ccore) {
	defer r.wg.Done()
	rng := rand.New(rand.NewSource(r.opts.Sched.Seed<<16 + int64(c.id) + 1))
	for {
		select {
		case <-r.stop:
			return
		case d := <-c.inbox:
			credits := int64(1)
			if r.mx != nil {
				// Sample the inbox depth at drain start (+1 for the
				// delivery already in hand).
				r.mx.SampleInbox(len(c.inbox) + 1)
			}
			c.mu.Lock()
			c.receive(d)
		drain:
			for {
				select {
				case d := <-c.inbox:
					c.receive(d)
					credits++
				default:
					break drain
				}
			}
			c.mu.Unlock()
			r.dispatchLoop(c, rng)
			r.inFlight.Add(-credits)
		}
	}
}

// dispatchLoop runs local ready invocations until the core's queue and
// guard matching come up empty, then tries to steal; it returns when there
// is nothing left to execute (or the run is stopping/degraded).
func (r *crun) dispatchLoop(c *ccore, rng *rand.Rand) {
	for !r.stopped() && !r.degraded.Load() {
		inv, owner := r.acquireLocal(c), c
		if inv == nil && !r.opts.Sched.DisableStealing {
			inv, owner = r.stealFrom(c, rng)
		}
		if inv == nil {
			return
		}
		ok := r.execute(c, owner, inv, false)
		c.invs.put(inv)
		if !ok {
			return
		}
	}
}

// acquireLocal claims the oldest ready invocation from c's own deque.
func (r *crun) acquireLocal(c *ccore) *invocation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return r.takeFrom(c, c, false)
}

// stealFrom probes other cores in random order and steals the newest
// ready invocation from the first victim with claimable work. The thief
// still holds its own drain credits while executing stolen work, so
// quiescence detection keeps counting it.
func (r *crun) stealFrom(c *ccore, rng *rand.Rand) (*invocation, *ccore) {
	n := len(r.cores)
	if n <= 1 {
		return nil, nil
	}
	tries := r.opts.Sched.StealTries
	if tries <= 0 {
		tries = n - 1
	}
	probed := 0
	for _, vi := range rng.Perm(n) {
		v := r.cores[vi]
		if v == c {
			continue
		}
		if probed >= tries {
			break
		}
		probed++
		if r.mx != nil {
			r.mx.StealAttempts.Add(1)
		}
		v.mu.Lock()
		inv := r.takeFrom(c, v, true)
		v.mu.Unlock()
		if inv != nil {
			if r.mx != nil {
				r.mx.StealSuccesses.Add(1)
			}
			return inv, v
		}
	}
	return nil, nil
}

// takeFrom refreshes v's ready deque and claims the first entry that
// survives validation: all parameter locks acquired in canonical order
// (lock-or-skip — never block), guards re-checked after locking, and the
// objects consumed from the parameter sets under v's scheduler lock.
// Local dispatch pops the front (oldest ready), stealing pops the back.
// The claimed invocation is drawn from the executing core c's recycled
// invocations. Callers hold v.mu.
func (r *crun) takeFrom(c, v *ccore, stealing bool) *invocation {
	v.refreshDeque(r.opts.Sched.dequeCap())
	for lo, hi := 0, len(v.deque); lo < hi; {
		var ht *hostedTask
		if stealing {
			hi--
			ht = v.deque[hi]
		} else {
			ht = v.deque[lo]
			lo++
		}
		inv := ht.take(c.invs.get(), false)
		if r.lockAndValidate(inv) {
			inv.consume()
			return inv
		}
		c.invs.put(inv)
	}
	return nil
}

// refreshDeque rebuilds the bounded ready deque from the parameter sets:
// one candidate per hosted task, oldest ready first, truncated at cap
// (overflow stays in the parameter sets for the next refresh).
func (c *ccore) refreshDeque(max int) {
	c.deque = c.deque[:0]
	for _, ht := range c.tasks {
		if !ht.assemble(nil, c.mx) {
			continue
		}
		c.deque = append(c.deque, ht)
		for i := len(c.deque) - 1; i > 0 && c.deque[i-1].readySeq > ht.readySeq; i-- {
			c.deque[i-1], c.deque[i] = c.deque[i], c.deque[i-1]
		}
		if len(c.deque) >= max {
			break
		}
	}
}

// lockAndValidate acquires the invocation's parameter locks in canonical
// (ascending object ID) order with try-locks and re-validates every guard
// after locking (another core may have transitioned an object between
// assembly and acquisition). On failure it releases what it acquired in
// reverse-canonical order and reports false. The canonical order is built
// in inv.locked itself: sorted in place, adjacent duplicates skipped.
func (r *crun) lockAndValidate(inv *invocation) bool {
	l := append(inv.locked[:0], inv.objs...)
	for i := 1; i < len(l); i++ {
		for j := i; j > 0 && l[j-1].ID > l[j].ID; j-- {
			l[j-1], l[j] = l[j], l[j-1]
		}
	}
	n := 0
	for _, o := range l {
		if n > 0 && l[n-1] == o {
			continue
		}
		l[n] = o
		n++
	}
	l = l[:n]
	inv.locked = l[:0]
	for i, o := range l {
		if !o.TryLock() {
			// Lock-or-skip: abandon the invocation, never block.
			if r.mx != nil {
				r.mx.RecordContention(o.ID)
			}
			unlockAll(l[:i])
			return false
		}
		if r.mx != nil {
			r.mx.LockAcquisitions.Add(1)
		}
	}
	for i, o := range inv.objs {
		if !inv.ht.guards[i].ok(o) {
			if r.mx != nil {
				r.mx.GuardRechecks.Add(1)
			}
			unlockAll(l)
			return false
		}
	}
	inv.locked = l
	return true
}

// unlockAll releases parameter locks in reverse-canonical order (the
// mirror of acquisition; locked is already deduplicated and in ascending
// object ID order).
func unlockAll(locked []*interp.Object) {
	for i := len(locked) - 1; i >= 0; i-- {
		locked[i].Unlock()
	}
}

// attemptKey identifies an invocation across re-dispatches: the task plus
// its parameter object IDs.
func attemptKey(inv *invocation) string {
	var b strings.Builder
	b.WriteString(inv.ht.task.Name)
	for _, o := range inv.objs {
		fmt.Fprintf(&b, "|%d", o.ID)
	}
	return b.String()
}

func (r *crun) bumpAttempt(inv *invocation) int {
	if r.opts.Fault.Injector == nil {
		return 1
	}
	r.attemptMu.Lock()
	defer r.attemptMu.Unlock()
	r.attempts[attemptKey(inv)]++
	return r.attempts[attemptKey(inv)]
}

func (r *crun) clearAttempt(inv *invocation) {
	if r.opts.Fault.Injector == nil {
		return
	}
	r.attemptMu.Lock()
	delete(r.attempts, attemptKey(inv))
	r.attemptMu.Unlock()
}

// injectedPanic marks a panic raised by the fault-injection hook, so the
// recovery path can tell a scripted transient crash (safe to retry — the
// task body never started) from a real panic escaping the interpreter.
type injectedPanic struct{ task string }

// runProtected executes one invocation attempt under the failure-
// containment envelope: injected faults fire first (stall, then crash),
// the per-invocation timeout is enforced on the pre-body phase, and any
// panic is recovered into a typed error. retryable reports whether the
// failure is a contained transient (injected) fault.
func (r *crun) runProtected(c *ccore, inv *invocation, attempt int, drain bool) (exec *interp.Exec, err error, retryable bool) {
	coreID := c.id
	if drain {
		coreID = faultinject.DrainCore
	}
	defer func() {
		if p := recover(); p != nil {
			if r.mx != nil {
				r.mx.TaskPanics.Add(1)
			}
			exec = nil
			_, injected := p.(injectedPanic)
			retryable = injected
			err = fmt.Errorf("%w: task %s on core %d (attempt %d): %v",
				ErrTaskPanic, inv.ht.task.Name, coreID, attempt, p)
		}
	}()
	fp := r.opts.Fault
	if fp.Injector != nil {
		start := time.Now()
		f := fp.Injector.Inject(inv.ht.task.Name, coreID, attempt)
		if f.Delay > 0 {
			r.sleep(f.Delay)
		}
		// Judge the stall by the injected duration as well as the measured
		// one: shutdown cuts r.sleep short, and an over-budget stall must
		// still count as a timeout when re-attempted in the degraded drain.
		if fp.InvocationTimeout > 0 && (f.Delay > fp.InvocationTimeout || time.Since(start) > fp.InvocationTimeout) {
			if r.mx != nil {
				r.mx.Timeouts.Add(1)
			}
			return nil, fmt.Errorf("%w: task %s on core %d (attempt %d): stalled %v, budget %v",
				ErrTimeout, inv.ht.task.Name, coreID, attempt, time.Since(start), fp.InvocationTimeout), true
		}
		if f.Panic {
			panic(injectedPanic{task: inv.ht.task.Name})
		}
	}
	exec, err = r.in.RunTaskBuffered(inv.ht.fn, inv.params(), &c.out)
	return exec, err, false
}

// execute runs one claimed invocation on core c (owner is the core whose
// parameter sets the invocation was drawn from — different from c when the
// work was stolen). It returns false when the caller's dispatch loop
// should stop (terminal error, invocation budget, or degradation).
func (r *crun) execute(c, owner *ccore, inv *invocation, drain bool) bool {
	attempt := r.bumpAttempt(inv)
	inv.snap = snapshotParams(inv.snap[:0], inv.locked)
	var spanStart int64
	if r.trc != nil {
		spanStart = r.trc.now()
	}
	c.out = c.out[:0]
	exec, err, retryable := r.runProtected(c, inv, attempt, drain)
	if err != nil {
		// Contained failure: drop the attempt's output, roll the
		// parameter objects back to their pre-invocation flag/tag
		// snapshot, re-file them into the owner's parameter sets, and
		// release the locks — then decide between retry and degradation.
		inv.snap.restore()
		if r.mx != nil {
			r.mx.Rollbacks.Add(1)
		}
		owner.mu.Lock()
		inv.unconsume()
		owner.mu.Unlock()
		unlockAll(inv.locked)
		r.progress.Add(1)
		return r.handleFailure(c, owner, inv, err, attempt, retryable, drain)
	}
	r.clearAttempt(inv)
	if r.trc != nil {
		// Record while the parameter locks are held and before routing,
		// so dependence edges resolve.
		r.trc.record(c.id, inv, exec, spanStart, r.trc.now())
	}
	// Commit: publish the invocation's output in one write, before its
	// objects are routed on, so a consumer's output always follows its
	// producer's.
	r.in.WriteOutput(c.out)
	unlockAll(inv.locked)
	r.nInv.Add(1)
	r.progress.Add(1)
	c.tasksRun[inv.ht.idx]++
	for _, o := range inv.objs {
		r.route(o, c.id)
	}
	for _, o := range exec.NewObjects {
		if _, ok := r.dep.Graphs[o.Class.Name]; ok {
			r.route(o, c.id)
		}
	}
	if !drain {
		// Poke other cores: a released lock may unblock them, and idle
		// cores use the wakeup to try stealing. Cores with a poke already
		// queued are skipped — they will rescan when they consume it.
		for _, other := range r.cores {
			if other != c {
				r.poke(other)
			}
		}
	}
	if r.nInv.Load() > r.opts.MaxInvocations {
		r.fail(fmt.Errorf("bamboort: exceeded %d invocations", r.opts.MaxInvocations))
		return false
	}
	return true
}

// handleFailure implements the retry policy for one contained failure:
// transient (injected) failures back off exponentially and retry up to the
// policy's budget; exhaustion poisons the executing core and degrades the
// run to a sequential drain; non-retryable failures (a real task panic)
// terminate the run with the typed error.
func (r *crun) handleFailure(c, owner *ccore, inv *invocation, err error, attempt int, retryable, drain bool) bool {
	if !retryable {
		r.fail(err)
		return false
	}
	fp := r.opts.Fault
	if attempt <= fp.maxRetries() {
		if r.mx != nil {
			r.mx.Retries.Add(1)
		}
		r.sleep(fp.backoff(attempt))
		if owner != c && !drain {
			// Stolen work: wake the owner so the invocation is
			// re-dispatched even if this thief finds other work.
			r.poke(owner)
		}
		return true
	}
	if drain {
		// Retries exhausted even in sequential drain: the fault is not
		// transient after all — surface it.
		r.fail(err)
		return false
	}
	c.mu.Lock()
	c.poisoned = true
	c.mu.Unlock()
	if r.mx != nil {
		r.mx.PoisonedCores.Add(1)
	}
	r.degraded.Store(true)
	return false
}

// drainSequential is the degraded mode entered when a core is poisoned:
// with all workers stopped, the coordinator alone drains every inbox into
// the parameter sets and executes the remaining invocations one at a time
// (injectors observe faultinject.DrainCore). Retry budgets reset on entry;
// an invocation that still exhausts them fails the run with its typed
// error.
func (r *crun) drainSequential() error {
	if r.mx != nil {
		r.mx.DegradedDrains.Add(1)
	}
	r.attemptMu.Lock()
	r.attempts = map[string]int{}
	r.attemptMu.Unlock()
	for {
		if err := r.err(); err != nil {
			return err
		}
		moved := false
		for _, c := range r.cores {
		inbox:
			for {
				select {
				case d := <-c.inbox:
					c.mu.Lock()
					c.receive(d)
					c.mu.Unlock()
					r.inFlight.Add(-1)
					moved = true
				default:
					break inbox
				}
			}
		}
		for _, c := range r.cores {
			c.mu.Lock()
			inv := r.takeFrom(c, c, false)
			c.mu.Unlock()
			if inv == nil {
				continue
			}
			moved = true
			// Execute on the owner's identity so trace spans and routing
			// stay attributed to the core that hosted the work; injectors
			// see DrainCore via the drain flag.
			ok := r.execute(c, c, inv, true)
			c.invs.put(inv)
			if !ok {
				if err := r.err(); err != nil {
					return err
				}
			}
		}
		if !moved {
			return r.err()
		}
	}
}

// receive files a delivery into the matching parameter set. Callers hold
// c.mu.
func (c *ccore) receive(d delivery) {
	if d.obj == nil {
		// Clear the dedup flag before the caller's rescan: any state a
		// suppressed sender published before reading the flag is visible
		// to the rescan that follows this drain.
		c.pokePending.Store(false)
		if c.mx != nil {
			c.mx.Pokes.Add(1)
		}
		return // poke
	}
	if c.mx != nil {
		c.mx.Deliveries.Add(1)
	}
	for _, ht := range c.tasks {
		if ht.task == d.task {
			if ht.guards[d.param].ok(d.obj) {
				c.arrSeq++
				var at int64
				if c.trc != nil {
					at = c.trc.now()
				}
				ht.sets[d.param].add(d.obj, c.arrSeq, at)
			}
			return
		}
	}
}
