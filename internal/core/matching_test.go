package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/examples"
	"repro/internal/core"
	"repro/internal/obsv"
)

// kvMatchWork boots a deterministic KV session, feeds it one batch of
// size requests (none when size is 0) and returns the session's total
// invocations and parameter-set entries scanned.
func kvMatchWork(t *testing.T, sys *core.System, prep *core.Prepared, size int) (invocations, scanned int64) {
	t.Helper()
	ctx := context.Background()
	m := &obsv.Metrics{}
	sess, err := sys.StartSession(ctx, core.ExecConfig{
		Machine: prep.Machine, Layout: prep.Layout, Args: kvArgs, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if size > 0 {
		if _, err := sess.Feed(ctx, goldenKVBatch(rand.New(rand.NewSource(3)), size)); err != nil {
			t.Fatal(err)
		}
	}
	res := sess.Close()
	return res.Invocations, m.EntriesScanned.Load()
}

// TestMatchingScanIsOReady checks that guard matching scans work that
// can run rather than work that is merely pending: on the deterministic
// engine, the parameter-set entries scanned per invocation for a
// 1000-request KV feed stay within 2x of the figure for a 16-request feed
// (a scan proportional to the pending set would grow ~60x).
func TestMatchingScanIsOReady(t *testing.T) {
	sys, err := core.Compile(examples.KVStoreSource(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sys.Prepare(context.Background(), core.PrepareConfig{Cores: 2, Seed: 1, Args: kvArgs})
	if err != nil {
		t.Fatal(err)
	}
	bootInv, bootScan := kvMatchWork(t, sys, prep, 0)
	perDispatch := func(size int) float64 {
		inv, scan := kvMatchWork(t, sys, prep, size)
		return float64(scan-bootScan) / float64(inv-bootInv)
	}
	small, large := perDispatch(16), perDispatch(1000)
	t.Logf("entries scanned per dispatch: %.2f at 16 requests, %.2f at 1000", small, large)
	if large > 2*small {
		t.Errorf("entries scanned per dispatch grew from %.2f (16 requests) to %.2f (1000 requests), more than 2x", small, large)
	}
}
