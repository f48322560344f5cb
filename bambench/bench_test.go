package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json names workloads this
// benchmark runs, and exactly the metrics it reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not one of %v", w.Name, workloadNames())
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, bambench %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), bambench %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestInputsDeterministic checks that one seed generates identical
// inputs and two seeds different ones, for both generators.
func TestInputsDeterministic(t *testing.T) {
	kv := func(seed uint64) [][]kvOp {
		var out [][]kvOp
		for c := 0; c < clients; c++ {
			g := newKVGen(seed, c, 0.5)
			for i := 0; i < 20; i++ {
				out = append(out, g.feed(16))
			}
		}
		return out
	}
	jobs := func(seed uint64) []variant {
		g := newJobGen(seed, 3)
		var out []variant
		for i := 0; i < 3*g.roundSize(); i++ {
			out = append(out, g.next())
		}
		return out
	}
	if !reflect.DeepEqual(kv(7), kv(7)) || !reflect.DeepEqual(jobs(7), jobs(7)) {
		t.Error("one seed generated different inputs")
	}
	if reflect.DeepEqual(kv(7), kv(8)) || reflect.DeepEqual(jobs(7), jobs(8)) {
		t.Error("two seeds generated identical inputs")
	}
}

// TestKVKeys checks the key layout: distinct keys per feed, disjoint
// clients, and every key inside the store's 512 slots.
func TestKVKeys(t *testing.T) {
	owner := map[int]int{}
	for c := 0; c < clients; c++ {
		g := newKVGen(1, c, 0.5)
		for i := 0; i < 50; i++ {
			seen := map[int]bool{}
			for _, o := range g.feed(192) {
				if seen[o.key] {
					t.Fatalf("key %d twice in one feed", o.key)
				}
				seen[o.key] = true
				if o.key < 0 || o.key >= kvKeys {
					t.Fatalf("key %d outside the store", o.key)
				}
				if prev, ok := owner[o.key]; ok && prev != c {
					t.Fatalf("key %d used by clients %d and %d", o.key, prev, c)
				}
				owner[o.key] = c
			}
		}
	}
}

func TestOutputsMatch(t *testing.T) {
	for _, tc := range []struct {
		got, want string
		ok        bool
	}{
		{"sum=1.0000000000000002 n=3\n", "sum=1.0 n=3\n", true},
		{"sum=1.0001 n=3\n", "sum=1.0 n=3\n", false},
		{"n=3\n", "n=4\n", false},
		{"total 12\n", "sum 12\n", false},
		{"a 1 2\n", "a 1\n", false},
	} {
		if err := outputsMatch(tc.got, tc.want); (err == nil) != tc.ok {
			t.Errorf("outputsMatch(%q, %q) = %v, want ok=%v", tc.got, tc.want, err, tc.ok)
		}
	}
}

// TestShortRuns builds bambood and bambench, runs every workload
// briefly in both modes, and checks every named metric is present,
// finite and in its unit. Traced runs go twice per workload: the
// deterministic counts must repeat exactly.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	dir := t.TempDir()
	bin := func(out, pkg string) string {
		path := filepath.Join(dir, out)
		cmd := exec.Command("go", "build", "-o", path, pkg)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, b)
		}
		return path
	}
	daemon, bench := bin("bambood", "repro/cmd/bambood"), bin("bambench", ".")
	runOnce := func(wl string, trace int) result {
		cmd := exec.Command(bench, "-bambood", daemon, "-workdir", filepath.Join(dir, "run"),
			"--workload", wl, "--seed", "3", "--seconds", "1", "--trace", strconv.Itoa(trace))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s trace=%d: %v\n%s", wl, trace, err, stderr.String())
		}
		var last string
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			last = sc.Text()
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatalf("%s trace=%d: last line %q: %v", wl, trace, last, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
		}
		defs := endToEnd
		if trace == 1 {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s trace=%d: %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			switch {
			case !ok:
				t.Errorf("%s trace=%d: missing %s", wl, trace, d.name)
			case m.Unit != d.unit:
				t.Errorf("%s trace=%d: %s unit %q, want %q", wl, trace, d.name, m.Unit, d.unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s trace=%d: %s = %v", wl, trace, d.name, m.Value)
			case trace == 0 && m.Value <= 0:
				t.Errorf("%s: end-to-end %s = %v, want > 0", wl, d.name, m.Value)
			}
		}
		return res
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			runOnce(w.name, 0)
			a, b := runOnce(w.name, 1), runOnce(w.name, 1)
			for _, name := range []string{"synth.sim_speedup", "bamboort.sim_cycles_per_req"} {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s differs across runs: %v vs %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			deterministic := "bamboort.sim_cycles_per_req"
			if w.jobs != nil {
				deterministic = "synth.sim_speedup"
			}
			if a.Metrics[deterministic].Value <= 0 {
				t.Errorf("%s = %v, want > 0", deterministic, a.Metrics[deterministic].Value)
			}
			if !strings.HasPrefix(w.name, "kv-") && a.Metrics["compile.ms.Keyword"].Value <= 0 {
				t.Errorf("compile.ms.Keyword not measured on %s", w.name)
			}
		})
	}
}
