package bamboort

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/benchmarks"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/types"
)

// guardSrc exercises guard shapes the benchmarks do not: disjunction,
// negated compounds, constants, and repeated tag types.
const guardSrc = `
class A { flag f; flag g; flag h; }
task startup(StartupObject s in initialstate) {
	taskexit(s: initialstate := false);
}
task orGuard(A a in f or g and !h) { taskexit(a: f := false); }
task notGuard(A a in !(f or g)) { taskexit(a: f := true); }
task constGuard(A a in true and !h) { taskexit(a: h := true); }
task falseGuard(A a in false or h) { taskexit(a: h := false); }
task twoTags(A a in f with link x and link y) { taskexit(a: f := false); }
task join(A a in g with link x, A b in h with link x and pair p) { taskexit(a: g := false; b: h := false); }
`

func lowerSource(t *testing.T, src string) *ir.Program {
	t.Helper()
	ast, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(ast)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(info)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCompiledGuardsMatchObjSatisfies checks every task parameter of the
// benchmarks (and of guardSrc and wideGuardSrc) against the uncompiled
// reference: for each flag word from flagWords and each mix of zero, one
// or two bound instances per required tag type, the compiled guard agrees
// with ObjSatisfies.
func TestCompiledGuardsMatchObjSatisfies(t *testing.T) {
	srcs := []string{guardSrc, wideGuardSrc()}
	for _, b := range benchmarks.All() {
		srcs = append(srcs, b.Source)
	}
	heap := interp.NewHeap()
	checked := 0
	for _, src := range srcs {
		prog := lowerSource(t, src)
		for _, fn := range prog.Tasks {
			for pi, p := range fn.Task.Params {
				g := compileParamGuard(p, fn.TagParams())
				var tagTypes []string
				for _, tg := range p.Tags {
					if !slices.Contains(tagTypes, tg.TagType) {
						tagTypes = append(tagTypes, tg.TagType)
					}
				}
				words := flagWords(len(p.Class.FlagIndex))
				for combo := 0; combo < pow3(len(tagTypes)); combo++ {
					o := heap.NewObject(p.Class)
					c := combo
					for _, ty := range tagTypes {
						for k := 0; k < c%3; k++ {
							o.AddTag(heap.NewTag(ty))
						}
						c /= 3
					}
					for _, w := range words {
						o.SetFlagsWord(w)
						if got, want := g.ok(o), ObjSatisfies(o, p); got != want {
							t.Fatalf("%s param %d, flags %b, tag combo %d: compiled %v, reference %v",
								fn.Task.Name, pi, w, combo, got, want)
						}
						checked++
					}
				}
			}
		}
	}
	t.Logf("%d guard evaluations agree", checked)
}

func pow3(n int) int {
	r := 1
	for ; n > 0; n-- {
		r *= 3
	}
	return r
}

// wideGuardSrc declares a class with the 64 flags the type checker
// allows and guards that name all of them, in conjunctive and other
// shapes.
func wideGuardSrc() string {
	var b strings.Builder
	b.WriteString("class W {")
	for i := range 64 {
		fmt.Fprintf(&b, " flag f%d;", i)
	}
	b.WriteString(" }\ntask startup(StartupObject s in initialstate) { taskexit(s: initialstate := false); }\n")
	guard := func(sep string, lit func(i int) string) string {
		terms := make([]string, 64)
		for i := range terms {
			terms[i] = lit(i)
		}
		return strings.Join(terms, sep)
	}
	for name, g := range map[string]string{
		"allSet":  guard(" and ", func(i int) string { return fmt.Sprintf("f%d", i) }),
		"mixed":   guard(" and ", func(i int) string { return fmt.Sprintf(map[bool]string{true: "f%d", false: "!f%d"}[i%3 == 0], i) }),
		"anySet":  guard(" or ", func(i int) string { return fmt.Sprintf("f%d", i) }),
		"pairs":   guard(" and ", func(i int) string { return fmt.Sprintf("(f%d or !f%d)", i, 63-i) }),
		"negated": "!(" + guard(" and ", func(i int) string { return fmt.Sprintf("f%d", i) }) + ") or f0 and !f0",
		"contra":  "f5 and f63 and !f5",
	} {
		fmt.Fprintf(&b, "task %s(W w in %s) { taskexit(w: f0 := false); }\n", name, g)
	}
	return b.String()
}

// flagWords is every flag word of a class with n flags when n <= 8, and
// otherwise the empty and full words, every word with one flag set or
// one clear, the word wideGuardSrc's "mixed" guard wants, and random
// words.
func flagWords(n int) []uint64 {
	var words []uint64
	if n <= 8 {
		for w := range uint64(1) << n {
			words = append(words, w)
		}
		return words
	}
	full := ^uint64(0) >> (64 - n)
	words = append(words, 0, full)
	for i := range n {
		words = append(words, 1<<i, full&^(1<<i))
	}
	var mixed uint64
	for i := 0; i < n; i += 3 {
		mixed |= 1 << i
	}
	words = append(words, mixed, mixed|2, mixed&^1)
	rng := rand.New(rand.NewSource(1))
	for range 1000 {
		words = append(words, rng.Uint64()&full, rng.Uint64()&rng.Uint64()&full, (rng.Uint64()|rng.Uint64())&full)
	}
	return words
}

// TestCompileGuardCost checks that compiling a guard costs time and space
// linear in its size: a 30-flag disjunction compiles to one node per AST
// node in a handful of allocations.
func TestCompileGuardCost(t *testing.T) {
	var b strings.Builder
	b.WriteString("class W {")
	for i := range 30 {
		fmt.Fprintf(&b, " flag f%d;", i)
	}
	b.WriteString(" }\ntask startup(StartupObject s in initialstate) { taskexit(s: initialstate := false); }\ntask wide(W w in f0")
	for i := 1; i < 30; i++ {
		fmt.Fprintf(&b, " or !f%d", i)
	}
	b.WriteString(") { taskexit(w: f0 := false); }\n")
	prog := lowerSource(t, b.String())
	var p *types.TaskParam
	for _, fn := range prog.Tasks {
		if fn.Task.Name == "wide" {
			p = fn.Task.Params[0]
		}
	}
	fg := compileFlagGuard(p.Guard, p.Class)
	if n := len(fg.tree); n > 30+29+29 { // 30 refs, 29 nots, 29 ors
		t.Fatalf("30-flag guard compiled to %d nodes", n)
	}
	if allocs := testing.AllocsPerRun(10, func() { compileFlagGuard(p.Guard, p.Class) }); allocs > 16 {
		t.Fatalf("compiling a 30-flag guard made %.0f allocations", allocs)
	}
}

// TestParamSetFIFO drives a parameter set through random adds (some of
// them repeated) and removals, and checks its walk order against a slice
// reference.
func TestParamSetFIFO(t *testing.T) {
	heap := interp.NewHeap()
	cl := &types.Class{Name: "C"}
	objs := make([]*interp.Object, 12)
	for i := range objs {
		objs[i] = heap.NewObject(cl)
	}
	rng := rand.New(rand.NewSource(1))
	ps := newParamSet()
	var ref []*interp.Object
	for step := range 5000 {
		o := objs[rng.Intn(len(objs))]
		if rng.Intn(3) < 2 {
			if ps.add(o, int64(step), 0) {
				ref = append(ref, o)
			} else if !slices.Contains(ref, o) {
				t.Fatalf("step %d: add reported a member that is not in the set", step)
			}
		} else {
			ps.remove(o)
			if i := slices.Index(ref, o); i >= 0 {
				ref = slices.Delete(ref, i, i+1)
			}
		}
		var got []*interp.Object
		for i := ps.head; i >= 0; i = ps.ents[i].next {
			got = append(got, ps.ents[i].obj)
		}
		if ps.n != len(ref) || !slices.Equal(got, ref) {
			t.Fatalf("step %d: walk %v (n=%d), reference %v", step, ids(got), ps.n, ids(ref))
		}
	}
}

func ids(objs []*interp.Object) []int64 {
	out := make([]int64, len(objs))
	for i, o := range objs {
		out[i] = o.ID
	}
	return out
}
