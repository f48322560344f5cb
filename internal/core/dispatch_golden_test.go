package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/benchmarks"
	"repro/examples"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/obsv"
)

// updateDispatchGolden rewrites testdata/dispatch_golden.txt from the
// current engine. The table pins the deterministic engine's dispatch order
// and virtual time; regenerate it only for a change that is meant to alter
// them, and say so in the change's description.
var updateDispatchGolden = flag.Bool("update-dispatch-golden", false, "rewrite testdata/dispatch_golden.txt")

const dispatchGoldenPath = "testdata/dispatch_golden.txt"

// goldenCores are the core counts every benchmark is pinned at.
var goldenCores = []int{1, 2, 4, 8}

// hashTrace folds every span's task, core, start, end and parameter object
// IDs into one FNV-64 digest.
func hashTrace(tr *obsv.Trace) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for i := range tr.Events {
		sp := &tr.Events[i]
		h.Write([]byte(sp.Task))
		h.Write([]byte{0})
		word(int64(sp.Core))
		word(sp.Start)
		word(sp.End)
		word(int64(len(sp.Params)))
		for _, p := range sp.Params {
			word(p)
		}
	}
	return h.Sum64()
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// goldenRow renders one pinned configuration.
func goldenRow(name string, res *bamboort.Result, tr *obsv.Trace, out []byte) string {
	return fmt.Sprintf("%s cycles=%d invocations=%d trace=%016x output=%016x",
		name, res.TotalCycles, res.Invocations, hashTrace(tr), hashBytes(out))
}

// goldenKVBatch builds a deterministic mix of KV puts and gets over a small
// key space, so gets hit, miss and read back earlier puts.
func goldenKVBatch(rng *rand.Rand, n int) []bamboort.Inject {
	batch := make([]bamboort.Inject, n)
	for i := range batch {
		op, key := rng.Intn(2), rng.Intn(96)
		batch[i] = bamboort.Inject{
			Class:   "Request",
			Flag:    "pending",
			Args:    []string{strconv.Itoa(op), strconv.Itoa(key), strconv.Itoa(rng.Intn(1000))},
			TagType: "shard",
			TagKey:  int64(key),
		}
	}
	return batch
}

// dispatchGoldenRows runs every pinned configuration: each benchmark at
// each core count (layout from Prepare at seed 1), and a KVStore
// deterministic session fed 1-, 16- and 192-request batches.
func dispatchGoldenRows(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	var rows []string
	for _, b := range benchmarks.All() {
		sys, err := core.Compile(b.Source, core.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: compile: %v", b.Name, err)
		}
		for _, n := range goldenCores {
			prep, err := sys.Prepare(ctx, core.PrepareConfig{Cores: n, Seed: 1, Args: b.Args, Hints: b.Hints})
			if err != nil {
				t.Fatalf("%s/%d: prepare: %v", b.Name, n, err)
			}
			tr := &obsv.Trace{}
			var out bytes.Buffer
			res, err := sys.Exec(ctx, core.ExecConfig{
				Machine: prep.Machine, Layout: prep.Layout, Args: b.Args, Out: &out, Trace: tr,
			})
			if err != nil {
				t.Fatalf("%s/%d: exec: %v", b.Name, n, err)
			}
			rows = append(rows, goldenRow(fmt.Sprintf("%s/%d", b.Name, n), res, tr, out.Bytes()))
		}
	}
	kvArgs := []string{"8", "64", "64"}
	sys, err := core.Compile(examples.KVStoreSource(), core.CompileOptions{})
	if err != nil {
		t.Fatalf("kvstore: compile: %v", err)
	}
	for _, n := range []int{2, 4} {
		prep, err := sys.Prepare(ctx, core.PrepareConfig{Cores: n, Seed: 1, Args: kvArgs})
		if err != nil {
			t.Fatalf("kvstore/%d: prepare: %v", n, err)
		}
		tr := &obsv.Trace{}
		var out bytes.Buffer
		sess, err := sys.StartSession(ctx, core.ExecConfig{
			Machine: prep.Machine, Layout: prep.Layout, Args: kvArgs, Out: &out, Trace: tr,
		})
		if err != nil {
			t.Fatalf("kvstore/%d: start: %v", n, err)
		}
		rng := rand.New(rand.NewSource(7))
		for _, size := range []int{1, 16, 192} {
			objs, err := sess.Feed(ctx, goldenKVBatch(rng, size))
			if err != nil {
				t.Fatalf("kvstore/%d: feed %d: %v", n, size, err)
			}
			for _, o := range objs {
				rep := core.RenderReply(o, "replied", []string{"found", "reply", "version"})
				fmt.Fprintf(&out, "%v %s %s %s\n", rep.Done, rep.Fields["found"], rep.Fields["reply"], rep.Fields["version"])
			}
		}
		res := sess.Close()
		rows = append(rows, goldenRow(fmt.Sprintf("KVStore-session/%d", n), res, tr, out.Bytes()))
	}
	return rows
}

// TestDispatchGolden pins the deterministic engine's dispatch order,
// virtual cycles and program output byte for byte against a table
// recorded before guard matching was rewritten: any change to which
// invocation runs when shows up as a trace-hash or cycle mismatch.
func TestDispatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes layouts for nine programs at four core counts")
	}
	got := dispatchGoldenRows(t)
	if *updateDispatchGolden {
		if err := os.MkdirAll(filepath.Dir(dispatchGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dispatchGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(dispatchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d rows, run produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("dispatch drifted:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
