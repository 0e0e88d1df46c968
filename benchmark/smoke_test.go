package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/grid"
)

// TestMain lets the test binary serve as the benchmark's child
// process, exactly as main does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout, os.Stderr))
	}
	if os.Getenv("GORACE") == "" {
		// Under -race every process sleeps a second at exit to collect
		// late reports; the children have joined all their goroutines
		// by then, and there are two dozen of them.
		os.Setenv("GORACE", "atexit_sleep_ms=0")
	}
	os.Exit(m.Run())
}

// benchmarkFile is BENCHMARK.json's schema: exactly these keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFile checks BENCHMARK.json against the driver's limits
// and against the tables the program prints from.
func TestBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 || len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 ||
		len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics are outside the limits",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Command) == 0 || len(f.Command) > 32 || len(f.Paths) != 1 {
		t.Fatalf("run_seconds %d, command %q, paths %q", f.RunSeconds, f.Command, f.Paths)
	}
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	for i, w := range f.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if i >= len(workloads) || workloads[i].name != w.Name || workloads[i].why != w.Why {
			t.Errorf("workload %d (%s) differs from the program's table", i, w.Name)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	setup := false
	for _, m := range append(append([]metricSpec{}, f.EndToEnd...), f.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range f.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) || !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Error("BENCHMARK.json's metrics differ from the program's tables")
	}
}

// TestSmoke runs every workload at -quick size in both modes and
// checks that exactly the declared workloads and metrics come out,
// every verdict and preflight arm passes, and no temporary data stays
// behind.
func TestSmoke(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, mode := range []struct {
		trace string
		want  []metricSpec
	}{{"0", f.EndToEnd}, {"1", f.PerLayer}} {
		dir := t.TempDir()
		save := filepath.Join(dir, "set.json")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-quick", "-trace", mode.trace, "-out", dir, "-save", save}, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s exited %d\n%s%s", mode.trace, code, stdout.String(), stderr.String())
		}
		set, err := loadSet(save)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Runs) != len(f.Workloads) {
			t.Fatalf("-trace %s ran %d workloads, want %d", mode.trace, len(set.Runs), len(f.Workloads))
		}
		for i, r := range set.Runs {
			if r.Workload != f.Workloads[i].Name || !r.Correct || r.Failed != 0 || r.Attempted < 2 {
				t.Errorf("-trace %s run %d: workload %s correct=%v attempted=%d failed=%d %v",
					mode.trace, i, r.Workload, r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			var got, want []string
			for n, m := range r.Metrics {
				got = append(got, n+" "+m.Unit)
			}
			for _, m := range mode.want {
				want = append(want, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("-trace %s %s emitted %v, want %v", mode.trace, r.Workload, got, want)
			}
			if mode.trace == "0" {
				for n, m := range r.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", r.Workload, n, m.Value)
					}
				}
			}
		}
		// The result lines carry exactly the driver's four keys.
		lines := 0
		for _, line := range strings.Split(stdout.String(), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			lines++
			var keys map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line has keys %v", keys)
			}
		}
		if lines != len(f.Workloads) {
			t.Errorf("-trace %s printed %d result lines, want %d", mode.trace, lines, len(f.Workloads))
		}
		left, err := filepath.Glob(filepath.Join(dir, "tmp-*"))
		if err != nil || len(left) != 0 {
			t.Errorf("temporary directories left behind: %v %v", left, err)
		}
		if mode.trace == "1" {
			checkTraces(t, dir, f)
		}
	}
}

// checkTraces checks that every workload's trace is a tree of spans.
func checkTraces(t *testing.T, dir string, f benchmarkFile) {
	for _, w := range f.Workloads {
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		var spans []span
		if err := json.Unmarshal(raw, &spans); err != nil {
			t.Error(err)
			continue
		}
		roots := 0
		for i, s := range spans {
			if s.ID != i || s.Parent >= i || s.Workload != w.Name || s.EndNS < s.StartNS || s.SelfNS < 0 {
				t.Errorf("%s: bad span %+v", w.Name, s)
			}
			if s.Parent < 0 {
				roots++
			}
		}
		if roots != 1 || len(spans) < 4 {
			t.Errorf("%s: %d spans with %d roots", w.Name, len(spans), roots)
		}
	}
}

// TestClusterListenerClosed checks that a cluster run leaves its
// pre-bound listener closed, on success and on failure.
func TestClusterListenerClosed(t *testing.T) {
	g, err := grid.New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range []bool{false, true} {
		ln, err := listen()
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		cfg := clusterConfig(g, nil, 2)
		cfg.CorruptShard = corrupt
		if _, err := runCluster(ln, cfg); (err != nil) != corrupt {
			t.Fatalf("corrupt=%v: %v", corrupt, err)
		}
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			t.Errorf("corrupt=%v: listener %s still accepts", corrupt, addr)
		}
	}
}

// TestCompare checks the three marks of -compare on synthetic sets.
func TestCompare(t *testing.T) {
	mk := func(verdicts ...float64) runSet {
		var s runSet
		for _, v := range verdicts {
			s.Runs = append(s.Runs, runResult{
				Workload: "grid-census",
				Metrics:  map[string]metric{"verdict_s": {v, "s"}},
				Exact:    map[string]int64{"states": 531441},
			})
		}
		return s
	}
	steady := mk(1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00)
	slower := mk(1.40, 1.41, 1.39, 1.40, 1.42, 1.38, 1.40, 1.41, 1.39, 1.40)
	noisy := mk(0.80, 1.30, 0.90, 1.20, 1.00, 1.05, 0.70, 1.25, 0.95, 1.00)
	for _, c := range []struct {
		name string
		b    runSet
		mark string
		code int
	}{{"same", steady, " ok", 0}, {"slower", slower, " worse", 1}, {"noisy", noisy, " unresolved", 0}} {
		var out bytes.Buffer
		if code := printComparison(steady, c.b, &out); code != c.code || !strings.Contains(out.String(), c.mark+"\n") {
			t.Errorf("%s: exit %d, want %d and mark%s\n%s", c.name, code, c.code, c.mark, out.String())
		}
	}
	other := mk(1.00)
	other.Runs[0].Exact["states"] = 531440
	var out bytes.Buffer
	if code := printComparison(steady, other, &out); code != 1 || !strings.Contains(out.String(), "exact counts differ") {
		t.Errorf("a differing exact count was not reported\n%s", out.String())
	}
	// The spread is the driver's: Python's statistics.quantiles(n=4).
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
