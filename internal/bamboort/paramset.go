package bamboort

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obsv"
	"repro/internal/types"
)

// flagGuard is a parameter's flag guard compiled against its class's flag
// indices, so matching never looks a flag up by name. A conjunction of
// flag literals (the common shape) is the test flags&mask == want; any
// other guard is a tree of nodes over pre-resolved bit masks, evaluated
// in time linear in its size.
type flagGuard struct {
	mask, want uint64
	tree       []guardNode // nil for a conjunction; the root is tree[0]
}

type guardOp uint8

const (
	opFlag  guardOp = iota // bit is set
	opConst                // bit != 0
	opNot                  // !l
	opAnd                  // l && r
	opOr                   // l || r
)

// guardNode is one node of a compiled guard tree; l and r index the tree.
type guardNode struct {
	op   guardOp
	bit  uint64
	l, r int32
}

// compileFlagGuard compiles g. Unknown flag names read bit 0, as in
// depend.GuardSatisfied, the reference evaluator.
func compileFlagGuard(g ast.FlagExp, cl *types.Class) flagGuard {
	bit := func(name string) uint64 { return 1 << uint(cl.FlagIndex[name]) }
	var fg flagGuard
	var conj func(ast.FlagExp) bool
	conj = func(g ast.FlagExp) bool {
		var b, w uint64
		switch g := g.(type) {
		case *ast.FlagBin:
			return g.Op == "and" && conj(g.L) && conj(g.R)
		case *ast.FlagConst:
			return g.Value
		case *ast.FlagRef:
			b = bit(g.Name)
			w = b
		case *ast.FlagNot:
			r, ok := g.X.(*ast.FlagRef)
			if !ok {
				return false
			}
			b = bit(r.Name)
		default:
			return false
		}
		if fg.mask&b != 0 && fg.want&b != w {
			return false // f and !f: leave it to the tree
		}
		fg.mask |= b
		fg.want |= w
		return true
	}
	if conj(g) {
		return fg
	}
	fg = flagGuard{}
	var build func(ast.FlagExp) int32
	build = func(g ast.FlagExp) int32 {
		i := int32(len(fg.tree))
		fg.tree = append(fg.tree, guardNode{})
		n := guardNode{op: opConst}
		switch g := g.(type) {
		case *ast.FlagRef:
			n = guardNode{op: opFlag, bit: bit(g.Name)}
		case *ast.FlagConst:
			if g.Value {
				n.bit = 1
			}
		case *ast.FlagNot:
			n = guardNode{op: opNot, l: build(g.X)}
		case *ast.FlagBin:
			n.op = opOr
			if g.Op == "and" {
				n.op = opAnd
			}
			n.l = build(g.L)
			n.r = build(g.R)
		}
		fg.tree[i] = n
		return i
	}
	build(g)
	return fg
}

func (fg *flagGuard) holds(flags uint64) bool {
	if fg.tree == nil {
		return flags&fg.mask == fg.want
	}
	return fg.eval(0, flags)
}

func (fg *flagGuard) eval(i int32, flags uint64) bool {
	n := &fg.tree[i]
	switch n.op {
	case opFlag:
		return flags&n.bit != 0
	case opConst:
		return n.bit != 0
	case opNot:
		return !fg.eval(n.l, flags)
	case opAnd:
		return fg.eval(n.l, flags) && fg.eval(n.r, flags)
	default:
		return fg.eval(n.l, flags) || fg.eval(n.r, flags)
	}
}

// tagNeed is one distinct tag type a parameter's tag guards require: at
// least one bound instance, or at least two ("many") when several guards
// name the type.
type tagNeed struct {
	typ  string
	many bool
}

// paramGuard is a task parameter's compiled guard: the flag guard, the tag
// counts ObjSatisfies checks, and, per tag guard, the index of its
// variable in Func.TagParams() (the binding slot during assembly).
type paramGuard struct {
	flags flagGuard
	needs []tagNeed
	vars  []int
}

// compileParamGuard compiles p; tagParams is its task's Func.TagParams().
func compileParamGuard(p *types.TaskParam, tagParams []string) paramGuard {
	g := paramGuard{flags: compileFlagGuard(p.Guard, p.Class)}
	for _, tg := range p.Tags {
		g.vars = append(g.vars, slices.Index(tagParams, tg.Name))
		k := 0
		for k < len(g.needs) && g.needs[k].typ != tg.TagType {
			k++
		}
		if k == len(g.needs) {
			g.needs = append(g.needs, tagNeed{typ: tg.TagType})
		} else {
			g.needs[k].many = true
		}
	}
	return g
}

// ok is ObjSatisfies over the compiled guard.
func (g *paramGuard) ok(o *interp.Object) bool {
	if !g.flags.holds(o.Flags()) {
		return false
	}
	if len(g.needs) == 0 {
		return true
	}
	tags := o.Tags()
	for _, n := range g.needs {
		cnt := 0
		for _, t := range tags {
			if t.Type == n.typ {
				if cnt++; cnt == 2 {
					break
				}
			}
		}
		if cnt == 0 || n.many && cnt < 2 {
			return false
		}
	}
	return true
}

// psEntry is one pending object in a parameter set: its global arrival
// sequence (oldest-ready dispatch order), its arrival timestamp (engine
// cycles or, on the concurrent engine, wall-clock nanoseconds —
// observability only, never scheduling), and its links in the set's FIFO.
type psEntry struct {
	obj        *interp.Object
	seq, at    int64
	prev, next int32
}

// paramSet is one parameter's pending objects: a doubly linked FIFO, in
// arrival order, of entries in a slice whose free slots are recycled,
// plus an object index for idempotent add and O(1) removal. In steady
// state neither adding nor removing allocates.
type paramSet struct {
	ents       []psEntry
	head, tail int32
	free       int32 // free-slot list, linked through next
	n          int
	idx        map[*interp.Object]int32
}

func newParamSet() paramSet {
	return paramSet{head: -1, tail: -1, free: -1, idx: map[*interp.Object]int32{}}
}

// add appends obj (idempotent) with its arrival sequence number and
// timestamp. It returns whether the object was newly added.
func (ps *paramSet) add(obj *interp.Object, seq, at int64) bool {
	if _, ok := ps.idx[obj]; ok {
		return false
	}
	i := ps.free
	if i >= 0 {
		ps.free = ps.ents[i].next
	} else {
		i = int32(len(ps.ents))
		ps.ents = append(ps.ents, psEntry{})
	}
	ps.ents[i] = psEntry{obj: obj, seq: seq, at: at, prev: ps.tail, next: -1}
	if ps.tail >= 0 {
		ps.ents[ps.tail].next = i
	} else {
		ps.head = i
	}
	ps.tail = i
	ps.idx[obj] = i
	ps.n++
	return true
}

// unlink drops entry i and recycles its slot.
func (ps *paramSet) unlink(i int32) {
	e := &ps.ents[i]
	if e.prev >= 0 {
		ps.ents[e.prev].next = e.next
	} else {
		ps.head = e.next
	}
	if e.next >= 0 {
		ps.ents[e.next].prev = e.prev
	} else {
		ps.tail = e.prev
	}
	delete(ps.idx, e.obj)
	*e = psEntry{next: ps.free}
	ps.free = i
	ps.n--
}

// remove drops obj from the set if present.
func (ps *paramSet) remove(obj *interp.Object) {
	if i, ok := ps.idx[obj]; ok {
		ps.unlink(i)
	}
}

// hostedTask is one instantiation of a task on one core: a parameter set
// per parameter plus the compiled guards, and the scratch in which
// assemble builds the task's next candidate invocation. A hosted task is
// only assembled under its core's scheduler lock (the engine itself is
// single-threaded), so the scratch needs no further synchronization.
type hostedTask struct {
	fn     *ir.Func
	task   *types.Task
	idx    int // position in the program's sorted task list
	sets   []paramSet
	guards []paramGuard

	// Candidate scratch, valid after a successful assemble until the next
	// one: the chosen entry and object per parameter, the bound tag per
	// tag variable (Func.TagParams order), and the arrival sequence at
	// which the candidate became possible.
	ents     []int32
	objs     []*interp.Object
	binds    []*interp.Tag
	readySeq int64
	// scanned/dropped count one assemble's matching work.
	scanned, dropped int64
}

func newHostedTask(fn *ir.Func, idx int) *hostedTask {
	n := len(fn.Task.Params)
	ht := &hostedTask{
		fn:     fn,
		task:   fn.Task,
		idx:    idx,
		sets:   make([]paramSet, n),
		guards: make([]paramGuard, n),
		ents:   make([]int32, n),
		objs:   make([]*interp.Object, n),
		binds:  make([]*interp.Tag, len(fn.TagParams())),
	}
	for i, p := range fn.Task.Params {
		ht.guards[i] = compileParamGuard(p, fn.TagParams())
		ht.sets[i] = newParamSet()
	}
	return ht
}

// pending reports whether any parameter set is non-empty.
func (ht *hostedTask) pending() bool {
	for i := range ht.sets {
		if ht.sets[i].n > 0 {
			return true
		}
	}
	return false
}

// assemble looks for the task's next invocation: per parameter, the
// oldest unlocked object in FIFO order whose tags agree with the bindings
// made so far, backtracking as needed. locked (nil = nothing is locked)
// reports whether an object is held by an executing task. Entries whose
// object no longer satisfies the guard are dropped as the walk reaches
// them, and the walk stops at the first complete binding, so it touches
// only entries ahead of that binding. On success the candidate is left in
// the scratch (take turns it into an invocation) with readySeq set to the
// latest of its parameters' arrivals. The matching work is added to m
// once per call.
func (ht *hostedTask) assemble(locked func(*interp.Object) bool, m *obsv.Metrics) bool {
	ht.scanned, ht.dropped = 0, 0
	clear(ht.binds)
	ok := ht.tryBind(0, locked)
	if m != nil {
		m.DispatchAttempts.Add(1)
		if ht.scanned > 0 {
			m.EntriesScanned.Add(ht.scanned)
		}
		if ht.dropped > 0 {
			m.StaleDropped.Add(ht.dropped)
		}
	}
	if !ok {
		return false
	}
	ht.readySeq = 0
	for i, e := range ht.ents {
		if s := ht.sets[i].ents[e].seq; s > ht.readySeq {
			ht.readySeq = s
		}
	}
	return true
}

// tryBind binds parameters param.. in order (see assemble), walking each
// set in FIFO order.
func (ht *hostedTask) tryBind(param int, locked func(*interp.Object) bool) bool {
	if param == len(ht.sets) {
		return true
	}
	ps := &ht.sets[param]
	for i := ps.head; i >= 0; {
		next := ps.ents[i].next // tryEntry may unlink i
		if ht.tryEntry(param, i, locked) {
			return true
		}
		i = next
	}
	return false
}

// tryEntry tries to bind entry i of param's set and complete the binding
// from there. A stale entry (guard no longer holds) is dropped.
func (ht *hostedTask) tryEntry(param int, i int32, locked func(*interp.Object) bool) bool {
	ps := &ht.sets[param]
	obj := ps.ents[i].obj
	ht.scanned++
	if !ht.guards[param].ok(obj) {
		ps.unlink(i)
		ht.dropped++
		return false
	}
	if (locked != nil && locked(obj)) || ht.boundBefore(param, obj) {
		return false
	}
	ht.ents[param], ht.objs[param] = i, obj
	return ht.bindTags(param, obj, 0, locked)
}

// boundBefore reports whether obj already binds an earlier parameter: an
// object may satisfy several parameters of one task but binds at most one
// per invocation.
func (ht *hostedTask) boundBefore(param int, obj *interp.Object) bool {
	for _, o := range ht.objs[:param] {
		if o == obj {
			return true
		}
	}
	return false
}

// bindTags checks obj against the parameter's tag guards from gi on under
// the current bindings, trying each candidate tag instance for an unbound
// variable, then recurses to the next parameter.
func (ht *hostedTask) bindTags(param int, obj *interp.Object, gi int, locked func(*interp.Object) bool) bool {
	tags := ht.task.Params[param].Tags
	if gi == len(tags) {
		return ht.tryBind(param+1, locked)
	}
	v := ht.guards[param].vars[gi]
	if bound := ht.binds[v]; bound != nil {
		return obj.HasTag(bound) && ht.bindTags(param, obj, gi+1, locked)
	}
	for _, cand := range obj.Tags() {
		if cand.Type != tags[gi].TagType {
			continue
		}
		ht.binds[v] = cand
		if ht.bindTags(param, obj, gi+1, locked) {
			return true
		}
	}
	ht.binds[v] = nil
	return false
}

// take turns the assembled candidate into inv (reusing its buffers).
// withPre captures the parameters' pre-dispatch states, which the
// deterministic engine compares at commit.
func (ht *hostedTask) take(inv *invocation, withPre bool) *invocation {
	inv.ht = ht
	inv.readySeq = ht.readySeq
	inv.objs = append(inv.objs[:0], ht.objs...)
	inv.tags = append(inv.tags[:0], ht.binds...)
	inv.objSeqs, inv.objArrs = inv.objSeqs[:0], inv.objArrs[:0]
	inv.preFlags, inv.preTags = inv.preFlags[:0], inv.preTags[:0]
	for i, e := range ht.ents {
		ent := &ht.sets[i].ents[e]
		inv.objSeqs = append(inv.objSeqs, ent.seq)
		inv.objArrs = append(inv.objArrs, ent.at)
		if withPre {
			inv.preFlags = append(inv.preFlags, ent.obj.Flags())
			inv.preTags = append(inv.preTags, ent.obj.Tags())
		}
	}
	return inv
}

// invocation is a fully assembled task invocation: one object per parameter
// plus one tag instance per tag-guard variable (in Func.TagParams order).
// readySeq is the arrival sequence at which the invocation became possible
// (the latest of its parameters' arrivals); the scheduler runs the oldest
// ready invocation first. Invocations are recycled by the engines, so the
// slices are reused buffers.
type invocation struct {
	ht       *hostedTask
	objs     []*interp.Object
	tags     []*interp.Tag
	readySeq int64
	// objSeqs are the arrival sequences of the chosen parameter objects;
	// a parameter whose abstract state a task leaves unchanged is
	// re-enqueued with its original sequence (it logically never left the
	// parameter sets).
	objSeqs []int64
	// objArrs are the arrival timestamps of the chosen parameter objects
	// (trace dependence edges).
	objArrs []int64
	// preFlags/preTags snapshot the parameters' flag words and tag
	// bindings at dispatch (deterministic engine only; tag slices are
	// immutable once published, so holding them copies nothing).
	preFlags []uint64
	preTags  [][]*interp.Tag
	// locked is the deduplicated parameter-object set in canonical
	// (ascending object ID) acquisition order, populated by the concurrent
	// scheduler when the invocation's locks are acquired; release walks it
	// in reverse.
	locked []*interp.Object
	// snap is the concurrent scheduler's rollback snapshot.
	snap invSnapshot
	args []interp.Value
}

// params returns the interpreter argument vector (a reused buffer; the
// interpreter copies it into the callee's registers).
func (inv *invocation) params() []interp.Value {
	inv.args = inv.args[:0]
	for _, o := range inv.objs {
		inv.args = append(inv.args, interp.ObjV(o))
	}
	for _, t := range inv.tags {
		inv.args = append(inv.args, interp.TagV(t))
	}
	return inv.args
}

// invPool recycles invocations. Each executor (the deterministic engine,
// a concurrent core's dispatch loop) owns one.
type invPool []*invocation

func (p *invPool) get() *invocation {
	if n := len(*p); n > 0 {
		inv := (*p)[n-1]
		*p = (*p)[:n-1]
		return inv
	}
	return new(invocation)
}

// put recycles an invocation that is no longer referenced, dropping its
// references first.
func (p *invPool) put(inv *invocation) {
	clear(inv.objs)
	clear(inv.tags)
	clear(inv.preTags)
	clear(inv.locked)
	clear(inv.snap)
	clear(inv.args)
	inv.ht = nil
	*p = append(*p, inv)
}

// consume removes the invocation's objects from the parameter sets they
// were drawn from.
func (inv *invocation) consume() {
	for i, obj := range inv.objs {
		inv.ht.sets[i].remove(obj)
	}
}

// unconsume re-files the invocation's objects into the parameter sets they
// were drawn from (the inverse of consume), preserving their original
// arrival sequences and timestamps. The concurrent scheduler calls it when
// an attempt fails and the invocation must become dispatchable again;
// callers hold the owning core's scheduler lock.
func (inv *invocation) unconsume() {
	for i, obj := range inv.objs {
		inv.ht.sets[i].add(obj, inv.objSeqs[i], inv.objArrs[i])
	}
}
