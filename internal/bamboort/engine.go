package bamboort

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/profile"
	"repro/internal/types"
)

// Options configures an execution.
type Options struct {
	Machine *machine.Machine
	Layout  *layout.Layout
	Args    []string         // StartupObject.args
	Out     io.Writer        // program output; nil discards
	Profile *profile.Profile // when non-nil, records per-invocation stats
	Trace   *Trace           // when non-nil, records invocation events
	// Metrics, when non-nil, collects runtime counters: interpreter
	// dispatch statistics and guard-matching work on both engines, lock,
	// scheduler and failure counters on RunConcurrent only (the
	// deterministic engine has no lock contention to count).
	Metrics *obsv.Metrics
	// Sched configures the concurrent scheduler (RunConcurrent only). The
	// zero value enables work stealing with default knobs.
	Sched SchedPolicy
	// Fault configures failure containment (RunConcurrent only). The zero
	// value contains panics but injects nothing.
	Fault FaultPolicy
	// MaxInvocations guards against non-terminating task systems; 0 means
	// the default of 50 million.
	MaxInvocations int64
	// MaxTaskCycles bounds a single task invocation; 0 = 10 billion.
	MaxTaskCycles int64
	// NoFastDispatch routes execution through the interpreter's reference
	// tree walker instead of the flattened fast path. Results are
	// identical either way (the dispatch differential tests enforce it);
	// the walker's host time also tracks virtual cycles more closely, so
	// wall-clock measurement harnesses use this mode.
	NoFastDispatch bool
	// Heap, when non-nil, replaces the interpreter's fresh heap (e.g. one
	// with object tracking enabled for final-state snapshots).
	Heap *interp.Heap
}

// Trace records an engine's invocation history in the unified
// observability model (internal/obsv), so engine traces, simulator traces,
// and concurrent-runtime traces share one set of consumers.
type Trace = obsv.Trace

// TraceEvent is one completed task invocation.
type TraceEvent = obsv.Span

// Result summarizes an execution.
type Result struct {
	TotalCycles int64
	Invocations int64
	TasksRun    map[string]int64
}

// event kinds for the discrete-event queue.
type eventKind int

const (
	evArrive eventKind = iota
	evComplete
	evAttempt
)

type event struct {
	time int64
	seq  int64
	kind eventKind
	core int

	// evArrive
	ht    *hostedTask
	param int
	obj   *interp.Object
	// fifo is the arrival sequence used for oldest-ready dispatch; 0 means
	// "assign at push time". Deliveries of objects whose state a task left
	// unchanged preserve the original sequence.
	fifo int64

	// evComplete
	inv   *invocation
	exec  *interp.Exec
	start int64
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// core is one simulated tile running the Bamboo per-core scheduler.
type core struct {
	id     int // logical index into the layout
	phys   int // physical tile ID on the machine
	freeAt int64
	tasks  []*hostedTask
}

// Engine is the deterministic discrete-event execution engine.
type Engine struct {
	prog  *ir.Program
	dep   *depend.Result
	locks *disjoint.Result
	opts  Options

	in       *interp.Interp
	cores    []*core
	events   eventHeap
	evFree   []*event // recycled event records (popped and fully handled)
	seq      int64
	lockedBy map[*interp.Object]*invocation
	// isLocked is assemble's lock test over lockedBy, built once so the
	// dispatch path does not allocate a closure per attempt.
	isLocked func(*interp.Object) bool
	invs     invPool       // recycled invocations
	rr       map[rrKey]int // round-robin counters
	// tagRoute caches CommonTagType per task (the tag type a replicated
	// task's objects are hash-routed by, or "").
	tagRoute map[*types.Task]string
	lastEnd  int64
	nInv     int64
	tasksRun map[string]int64
	// producerOf maps each routed object to the trace index of the
	// invocation that created or last transitioned it (dependence edges).
	// Maintained only when tracing.
	producerOf map[*interp.Object]int
	// destRing caches, per replicated task, the round-robin destination
	// list with each core repeated in proportion to its speed (nominal
	// cores appear more often than slowed cores on heterogeneous
	// machines; on homogeneous machines every core appears once).
	destRing map[string][]int
	// routeTagBuf/routeKeyBuf are consumersOf scratch, reused across every
	// routed object (the engine is single-threaded).
	routeTagBuf []depend.TagEntry
	routeKeyBuf []byte
	// stateA/stateB are stateUnchanged scratch.
	stateA, stateB []depend.TagEntry

	// Session state (session.go): a started session keeps the engine
	// resident between Feed batches; a drain error poisons it.
	session bool
	sessErr error
}

// NewEngine builds an engine over the compiled program and analyses.
func NewEngine(prog *ir.Program, dep *depend.Result, locks *disjoint.Result, opts Options) (*Engine, error) {
	if opts.Machine == nil || opts.Layout == nil {
		return nil, fmt.Errorf("bamboort: Machine and Layout are required")
	}
	if opts.MaxInvocations == 0 {
		opts.MaxInvocations = 50_000_000
	}
	if opts.MaxTaskCycles == 0 {
		opts.MaxTaskCycles = 10_000_000_000
	}
	usable := opts.Machine.UsableCores()
	if opts.Layout.NumCores > len(usable) {
		return nil, fmt.Errorf("bamboort: layout needs %d cores, machine has %d usable", opts.Layout.NumCores, len(usable))
	}
	e := &Engine{
		prog:     prog,
		dep:      dep,
		locks:    locks,
		opts:     opts,
		in:       interp.New(prog),
		lockedBy: map[*interp.Object]*invocation{},
		rr:       map[rrKey]int{},
		tagRoute: commonTagTypes(prog),
		tasksRun: map[string]int64{},
		destRing: map[string][]int{},
	}
	e.isLocked = func(o *interp.Object) bool { return e.lockedBy[o] != nil }
	e.in.Out = opts.Out
	e.in.MaxCycles = opts.MaxTaskCycles
	if opts.NoFastDispatch {
		e.in.DisableFastDispatch()
	}
	if opts.Heap != nil {
		e.in.Heap = opts.Heap
	}
	e.cores = make([]*core, opts.Layout.NumCores)
	for i := range e.cores {
		e.cores[i] = &core{id: i, phys: usable[i]}
	}
	// Instantiate hosted tasks per the layout, in deterministic task order.
	taskNames := make([]string, 0, len(prog.Tasks))
	for _, fn := range prog.Tasks {
		taskNames = append(taskNames, fn.Task.Name)
	}
	sort.Strings(taskNames)
	for ti, name := range taskNames {
		fn := prog.Funcs[ir.TaskKey(name)]
		cs := opts.Layout.Cores(name)
		if len(cs) > 1 && len(fn.Task.Params) > 1 && CommonTagVar(fn.Task) == "" {
			return nil, fmt.Errorf("bamboort: task %s has multiple parameters without a common tag and cannot be replicated onto %d cores", name, len(cs))
		}
		for _, c := range cs {
			if c < 0 || c >= len(e.cores) {
				return nil, fmt.Errorf("bamboort: task %s assigned to core %d outside layout", name, c)
			}
			e.cores[c].tasks = append(e.cores[c].tasks, newHostedTask(fn, ti))
		}
	}
	return e, nil
}

// push copies ev into a pooled record (popped events are recycled once
// handled, so a steady-state run allocates no event objects) and queues it.
func (e *Engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	if ev.kind == evArrive && ev.fifo == 0 {
		ev.fifo = ev.seq
	}
	var p *event
	if n := len(e.evFree); n > 0 {
		p = e.evFree[n-1]
		e.evFree = e.evFree[:n-1]
	} else {
		p = new(event)
	}
	*p = ev
	heap.Push(&e.events, p)
}

// Run executes the program to quiescence and returns the result.
func (e *Engine) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext executes the program to quiescence, checking the context
// between event batches so long deterministic runs are cancellable.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	if err := e.begin(ctx); err != nil {
		return nil, err
	}
	if err := e.drain(ctx); err != nil {
		return nil, err
	}
	e.finishRun()
	return &Result{TotalCycles: e.lastEnd, Invocations: e.nInv, TasksRun: e.tasksRun}, nil
}

// begin arms tracing and injects the startup object at the core hosting
// the startup task. Shared by one-shot runs and sessions.
func (e *Engine) begin(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("bamboort: run canceled: %w", err)
		}
	}
	if e.opts.Trace != nil {
		e.opts.Trace.Source = "engine"
		e.opts.Trace.TimeUnit = obsv.UnitCycles
		e.opts.Trace.NumCores = e.opts.Layout.NumCores
		e.producerOf = map[*interp.Object]int{}
	}
	startCl := e.prog.Info.Classes[types.StartupClass]
	so := e.in.Heap.NewObject(startCl)
	so.SetFlag(startCl.FlagIndex[types.StartupFlag], true)
	if f, ok := startCl.FieldByName["args"]; ok {
		so.Fields[f.Index] = interp.ArrV(e.in.Heap.NewStringArray(e.opts.Args))
	}
	e.routeObject(so, -1, 0, 0, 0)
	return nil
}

// drain runs queued events until quiescence (an empty event queue). The
// invocation budget applies per drain, so a long-lived session gets a
// fresh budget for every request batch instead of exhausting a cumulative
// one.
func (e *Engine) drain(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("bamboort: run canceled: %w", err)
		}
	}
	startInv := e.nInv
	var handled int64
	for e.events.Len() > 0 {
		if handled++; handled&0xfff == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("bamboort: run canceled: %w", err)
			}
		}
		ev := heap.Pop(&e.events).(*event)
		var err error
		switch ev.kind {
		case evArrive:
			e.onArrive(ev)
		case evAttempt:
			err = e.onAttempt(ev)
		case evComplete:
			err = e.onComplete(ev)
		}
		if err != nil {
			return err
		}
		*ev = event{}
		e.evFree = append(e.evFree, ev)
		if e.nInv-startInv > e.opts.MaxInvocations {
			return fmt.Errorf("bamboort: exceeded %d task invocations; task system may not terminate", e.opts.MaxInvocations)
		}
	}
	return nil
}

// finishRun folds the interpreter's dispatch statistics into the run's
// metrics and, when the engine owns its heap, hands the arena back to the
// process-wide pools for the next execution.
func (e *Engine) finishRun() {
	if m := e.opts.Metrics; m != nil {
		st := e.in.Stats()
		m.ICHits.Add(st.ICHits)
		m.ICMisses.Add(st.ICMisses)
		m.FlatInstrs.Add(st.FlatInstrs)
		m.FusedInstrs.Add(st.FusedInstrs)
		m.ArenaReusedBytes.Add(st.ArenaReusedBytes)
	}
	if e.opts.Heap == nil {
		e.in.Heap.Release()
	}
}

func (e *Engine) onArrive(ev *event) {
	// Drop stale deliveries whose guard no longer holds.
	if !ev.ht.guards[ev.param].ok(ev.obj) {
		return
	}
	if ev.ht.sets[ev.param].add(ev.obj, ev.fifo, ev.time) {
		c := e.cores[ev.core]
		at := ev.time
		if c.freeAt > at {
			at = c.freeAt
		}
		e.push(event{time: at, kind: evAttempt, core: ev.core})
	}
}

// onAttempt scans the core's hosted tasks for a runnable invocation and, if
// found, starts executing it.
func (e *Engine) onAttempt(ev *event) error {
	c := e.cores[ev.core]
	if c.freeAt > ev.time {
		return nil // busy; completion will reschedule
	}
	inv := e.findInvocation(c)
	if inv == nil {
		return nil
	}
	// Lock all parameter objects (one lock per disjointness lock group).
	for _, obj := range inv.objs {
		e.lockedBy[obj] = inv
	}
	nGroups := len(e.locks.LockGroups[inv.ht.task.Name])
	m := e.opts.Machine
	overhead := m.DispatchCycles + m.LockCycles*int64(nGroups)

	exec, err := e.in.RunTask(inv.ht.fn, inv.params())
	if err != nil {
		return err
	}
	inv.consume()
	start := ev.time
	// Heterogeneous machines: the hosting tile's slowdown scales the
	// invocation's execution time (Section 4.6).
	dur := m.ScaleCycles(c.phys, overhead+exec.Cycles)
	c.freeAt = start + dur
	e.push(event{time: c.freeAt, kind: evComplete, core: ev.core, inv: inv, exec: exec, start: start})
	return nil
}

// findInvocation assembles a candidate per hosted task and returns the one
// that became ready first (oldest arrival), so long tasks cannot starve
// short invocations that were already waiting. Only the chosen candidate
// becomes an invocation.
func (e *Engine) findInvocation(c *core) *invocation {
	var best *hostedTask
	for _, ht := range c.tasks {
		if !ht.assemble(e.isLocked, e.opts.Metrics) {
			continue
		}
		if best == nil || ht.readySeq < best.readySeq {
			best = ht
		}
	}
	if best == nil {
		return nil
	}
	return best.take(e.invs.get(), true)
}

func (e *Engine) onComplete(ev *event) error {
	inv, exec := ev.inv, ev.exec
	c := e.cores[ev.core]
	e.nInv++
	e.tasksRun[inv.ht.task.Name]++
	if ev.time > e.lastEnd {
		e.lastEnd = ev.time
	}
	// Unlock parameters.
	for _, obj := range inv.objs {
		delete(e.lockedBy, obj)
	}
	// Record profile and trace.
	if e.opts.Profile != nil {
		allocs := map[profile.AllocKey]int64{}
		for _, o := range exec.NewObjects {
			if e.isTaskParamClass(o.Class) {
				key := profile.AllocKey{Class: o.Class.Name, StateKey: StateOf(o).Key()}
				allocs[key]++
			}
		}
		e.opts.Profile.Record(inv.ht.task.Name, exec.ExitID, exec.Cycles, allocs)
	}
	if e.opts.Trace != nil {
		idx := len(e.opts.Trace.Events)
		te := TraceEvent{
			Index: idx,
			Task:  inv.ht.task.Name, Core: ev.core, Start: ev.start, End: ev.time, Exit: exec.ExitID,
		}
		for i, o := range inv.objs {
			te.Params = append(te.Params, o.ID)
			// Producer lookup precedes this event's own updates: a
			// parameter's producer is whoever last transitioned it
			// before we dispatched (-1 = the environment).
			prod, ok := e.producerOf[o]
			if !ok {
				prod = -1
			}
			te.Deps = append(te.Deps, obsv.Dep{Obj: o.ID, Arrival: inv.objArrs[i], Producer: prod})
		}
		e.opts.Trace.Events = append(e.opts.Trace.Events, te)
		for _, o := range inv.objs {
			e.producerOf[o] = idx
		}
		for _, o := range exec.NewObjects {
			e.producerOf[o] = idx
		}
	}
	// Route transitioned parameters and new objects. Sender-side enqueue
	// costs extend the core's busy time. Parameters whose abstract state
	// the task left unchanged logically never left the parameter sets, so
	// their deliveries keep the original arrival sequence.
	var sendCost int64
	for i, obj := range inv.objs {
		fifo := int64(0)
		if e.stateUnchanged(inv, i) {
			fifo = inv.objSeqs[i]
		}
		sendCost += e.routeObject(obj, ev.core, ev.time, e.opts.Machine.EnqueueCycles, fifo)
	}
	for _, obj := range exec.NewObjects {
		if e.isTaskParamClass(obj.Class) {
			sendCost += e.routeObject(obj, ev.core, ev.time, e.opts.Machine.EnqueueCycles, 0)
		}
	}
	if sendCost > 0 {
		c.freeAt += sendCost
		if c.freeAt > e.lastEnd {
			e.lastEnd = c.freeAt
		}
	}
	// Wake this core and any core with pending work (locked objects may
	// have been released, enabling stalled invocations).
	e.push(event{time: c.freeAt, kind: evAttempt, core: c.id})
	for _, other := range e.cores {
		if other == c || !e.hasPending(other) {
			continue
		}
		at := ev.time
		if other.freeAt > at {
			at = other.freeAt
		}
		e.push(event{time: at, kind: evAttempt, core: other.id})
	}
	e.invs.put(inv)
	return nil
}

// stateUnchanged reports whether parameter i of inv still has the
// abstract state (flags plus 1-limited tag counts) it had at dispatch —
// StateOf(before).Key() == StateOf(now).Key() without building either
// state.
func (e *Engine) stateUnchanged(inv *invocation, i int) bool {
	obj := inv.objs[i]
	if inv.preFlags[i] != obj.Flags() {
		return false
	}
	before, now := inv.preTags[i], obj.Tags()
	if len(now) == len(before) && (len(now) == 0 || &now[0] == &before[0]) {
		return true
	}
	e.stateA = appendTagEntries(e.stateA[:0], before)
	e.stateB = appendTagEntries(e.stateB[:0], now)
	return slices.Equal(e.stateA, e.stateB)
}

func (e *Engine) hasPending(c *core) bool {
	for _, ht := range c.tasks {
		if ht.pending() {
			return true
		}
	}
	return false
}

// isTaskParamClass reports whether objects of cl can ever serve as task
// parameters (only those participate in routing).
func (e *Engine) isTaskParamClass(cl *types.Class) bool {
	_, ok := e.dep.Graphs[cl.Name]
	return ok
}

// routeObject delivers obj to every task parameter its current state can
// satisfy, per the layout's placement. It returns the sender-side cost and
// schedules arrival events. fromCore == -1 injects at time t with no
// message latency (startup). fifo != 0 preserves an earlier arrival
// sequence for oldest-ready dispatch.
func (e *Engine) routeObject(obj *interp.Object, fromCore int, t int64, enqueueCost int64, fifo int64) int64 {
	// The engine is single-threaded, so the routing-key scratch buffers
	// live on it and the per-object state/key allocations disappear.
	var consumers []depend.ParamRef
	consumers, e.routeTagBuf, e.routeKeyBuf = consumersOf(e.dep, obj, e.routeTagBuf, e.routeKeyBuf)
	var cost int64
	for _, pr := range consumers {
		cores := e.opts.Layout.Cores(pr.Task.Name)
		if len(cores) == 0 {
			continue
		}
		var dst int
		switch {
		case len(cores) == 1:
			dst = cores[0]
		default:
			if tagType := e.tagRoute[pr.Task]; tagType != "" && (len(pr.Task.Params) > 1 || e.session) {
				// Hash the bound tag instance: multi-parameter joins so all
				// objects of one tag group meet at the same instantiation,
				// and — in session mode only — single-parameter tag-guarded
				// stages so one group's stream stays on one core in FIFO
				// order (per-key ordering for streaming workloads). One-shot
				// runs keep round-robin for single-parameter tasks: a hot
				// tag group would otherwise pin to one core, and the change
				// would invalidate existing deterministic BENCH results.
				if tag := firstTagOf(obj, tagType); tag != nil {
					dst = cores[int(tag.ID)%len(cores)]
					break
				}
			}
			// Round-robin staggered by the sending core's index: cores
			// that send many objects distribute them evenly, and a core
			// that sends a single object (one pipeline stage feeding the
			// next) naturally keeps it local when it also hosts the
			// consumer, matching the data locality rule. On heterogeneous
			// machines the ring repeats fast cores in proportion to their
			// speed.
			ring := e.ring(pr.Task.Name, cores)
			key := rrKey{from: fromCore, task: pr.Task.Name}
			start := fromCore
			if start < 0 {
				start = 0
			}
			dst = ring[(e.rr[key]+start)%len(ring)]
			e.rr[key]++
		}
		var latency int64
		if fromCore >= 0 {
			latency = e.opts.Machine.MsgCycles(e.cores[fromCore].phys, e.cores[dst].phys, ObjWords(obj))
			cost += enqueueCost
		}
		ht := e.hostedOn(dst, pr.Task.Name)
		if ht == nil {
			continue
		}
		e.push(event{time: t + latency, kind: evArrive, core: dst, ht: ht, param: pr.Param, obj: obj, fifo: fifo})
	}
	return cost
}

// ring returns the weighted round-robin destination list for a task. Each
// host core's weight is its speed relative to the slowest host
// (round(maxSlowdown/slowdown)), so on homogeneous machines the ring is
// exactly the core list (weights all 1, preserving the locality stagger),
// while on heterogeneous machines fast cores take proportionally more of
// the stream. The ring is built in rounds — first one entry per core in
// order, then the extra entries — so the first len(cores) positions still
// match the plain core list.
func (e *Engine) ring(task string, cores []int) []int {
	if r, ok := e.destRing[task]; ok {
		return r
	}
	m := e.opts.Machine
	maxSlow := 1.0
	for _, c := range cores {
		if s := m.SlowdownOf(e.cores[c].phys); s > maxSlow {
			maxSlow = s
		}
	}
	weights := make([]int, len(cores))
	for i, c := range cores {
		w := int(maxSlow/m.SlowdownOf(e.cores[c].phys) + 0.5)
		if w < 1 {
			w = 1
		}
		weights[i] = w
	}
	var ring []int
	for {
		added := false
		for i, c := range cores {
			if weights[i] > 0 {
				weights[i]--
				ring = append(ring, c)
				added = true
			}
		}
		if !added {
			break
		}
	}
	e.destRing[task] = ring
	return ring
}

func firstTagOf(obj *interp.Object, tagType string) *interp.Tag {
	for _, tg := range obj.Tags() {
		if tg.Type == tagType {
			return tg
		}
	}
	return nil
}

func (e *Engine) hostedOn(coreID int, task string) *hostedTask {
	for _, ht := range e.cores[coreID].tasks {
		if ht.task.Name == task {
			return ht
		}
	}
	return nil
}
