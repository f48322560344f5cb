package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/examples"
	"repro/internal/bamboort"
	"repro/internal/core"
)

// feedBenchRestart bounds the requests one benchmark session absorbs
// before it is replaced (outside the timer): the KV session heap keeps
// every request object, so an unbounded session would make late
// iterations pay for a heap the early ones never had.
const feedBenchRestart = 20_000

// BenchmarkSessionFeedBatch measures the session feed path below the
// server: one Feed of a batch of KVStore requests (8 shards × 64 slots,
// puts and gets on random keys) at 2 cores, on both engines. ns/req and
// allocs/req normalize by batch size, so a matching cost that grows with
// the number of pending requests shows up as ns/req rising with batch.
func BenchmarkSessionFeedBatch(b *testing.B) {
	kvArgs := []string{"8", "64", "64"}
	sys, err := core.Compile(examples.KVStoreSource(), core.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	prep, err := sys.Prepare(context.Background(), core.PrepareConfig{Cores: 2, Seed: 1, Args: kvArgs})
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range []core.Engine{core.Deterministic, core.Concurrent} {
		for _, size := range []int{1, 16, 192, 1000} {
			b.Run(fmt.Sprintf("%s/batch=%d", eng, size), func(b *testing.B) {
				cfg := core.ExecConfig{Engine: eng, Machine: prep.Machine, Layout: prep.Layout, Args: kvArgs}
				benchFeeds(b, sys, cfg, size)
			})
		}
	}
}

func benchFeeds(b *testing.B, sys *core.System, cfg core.ExecConfig, size int) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	batches := make([][]bamboort.Inject, 8)
	for i := range batches {
		batches[i] = make([]bamboort.Inject, size)
		for j := range batches[i] {
			key := rng.Intn(512)
			batches[i][j] = bamboort.Inject{
				Class:   "Request",
				Flag:    "pending",
				Args:    []string{strconv.Itoa(rng.Intn(2)), strconv.Itoa(key), strconv.Itoa(rng.Intn(1_000_000))},
				TagType: "shard",
				TagKey:  int64(key),
			}
		}
	}
	start := func() *core.Session {
		sess, err := sys.StartSession(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// One untimed feed warms the interpreter, arenas and pools.
		if _, err := sess.Feed(ctx, batches[0]); err != nil {
			b.Fatal(err)
		}
		return sess
	}
	sess := start()
	var ms runtime.MemStats
	var mallocs uint64 // allocations made while the timer ran
	runtime.ReadMemStats(&ms)
	mark := ms.Mallocs
	fed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fed += size; fed > feedBenchRestart {
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - mark
			sess.Close()
			sess = start()
			fed = size
			runtime.ReadMemStats(&ms)
			mark = ms.Mallocs
			b.StartTimer()
		}
		if _, err := sess.Feed(ctx, batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	mallocs += ms.Mallocs - mark
	sess.Close()
	reqs := float64(b.N) * float64(size)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/req")
	b.ReportMetric(float64(mallocs)/reqs, "allocs/req")
}
