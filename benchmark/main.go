// Command benchmark is the repository's one yardstick: six named
// workloads, one per user-facing verdict (invariant check, certify,
// census, external census, cluster census, induct), each checked
// against an independent oracle and reported as the same four
// end-to-end metrics; a traced mode attributes the cost to layers by
// timing calls into each layer's public functions from this package.
// BENCHMARK.json at the repository root names the command, workloads
// and metrics; README.md in this directory explains them.
//
//	go run ./benchmark                       # all six workloads
//	go run ./benchmark -trace 1              # per-layer numbers
//	go run ./benchmark -compare A.json B.json
//
// Process model: a closed loop with one client. The parent never
// computes a verdict itself; it spawns one fresh child per repetition
// (GOMAXPROCS=2, default GOGC), one at a time, so every repetition is a
// cold CLI-like run and the child's ru_maxrss is that run's peak
// memory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// minReps is the fewest timed repetitions a run reports a median of.
const minReps = 3

// setupSamples is how many extra set-up-only children a run spawns so
// that setup_s is the median of enough samples to be steady.
const setupSamples = 8

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one parent invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	runs     int
	save     string
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var compare, confirm bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (default: all six)")
	fs.Int64Var(&cfg.seed, "seed", 1, "selects the preflight's oracle instances and must-fail parameters; the timed instance is pinned")
	fs.Float64Var(&cfg.seconds, "seconds", 8, "timed repetitions continue until this much verdict time is measured (at least 3 repetitions)")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes, one repetition")
	fs.IntVar(&cfg.runs, "runs", 1, "repeat the whole set this many times with seeds seed, seed+1, ...")
	fs.StringVar(&cfg.save, "save", "", "write every run of this invocation to this JSON file (input of -compare)")
	fs.StringVar(&cfg.out, "out", filepath.Join("benchmark", "out"), "directory for per-repetition rows, traces and temporary spill data")
	fs.BoolVar(&compare, "compare", false, "compare two -save files: -compare A.json B.json")
	fs.BoolVar(&confirm, "confirm", false, "re-confirm the pinned state counts against explore.ReferenceReach at full size (half a minute)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if confirm {
		return confirmPins(cfg, stdout, stderr)
	}
	selected := workloads
	if cfg.workload != "" {
		w := findWorkload(cfg.workload)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []*workload{w}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	set := runSet{Host: hostInfo()}
	code := 0
	for r := 0; r < cfg.runs; r++ {
		seed := cfg.seed + int64(r)
		for _, w := range selected {
			var res runResult
			if cfg.trace {
				res = runTraced(cfg, w, seed, stderr)
			} else {
				res = runEndToEnd(cfg, w, seed, stderr)
			}
			set.Runs = append(set.Runs, res)
			printRun(stdout, res)
			if !res.Correct {
				code = 1
			}
		}
	}
	if cfg.save != "" {
		if err := writeJSON(cfg.save, set); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// runResult is one (workload, seed) run: what the last stdout line
// reports, plus the rows behind it.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Exact holds the counts that must repeat exactly from run to run.
	Exact map[string]int64 `json:"exact,omitempty"`
	Reps  []repRow         `json:"reps,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repRow is one timed repetition (one child process).
type repRow struct {
	SetupS      float64 `json:"setup_s"`
	VerdictS    float64 `json:"verdict_s"`
	States      int64   `json:"states"`
	PeakRSSByte int64   `json:"peak_rss_bytes"`
}

// runSet is the -save file: every run of one invocation on one host.
type runSet struct {
	Host host        `json:"host"`
	Runs []runResult `json:"runs"`
}

type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs_child"`
	GOGC       string `json:"gogc_child"`
	Go         string `json:"go"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: childProcs, GOGC: "default (100)", Go: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					h.CPU = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return h
}

// fail records one failed operation.
func (r *runResult) fail(format string, a ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
}

// setMetrics reports values under the declared names and units: a
// declared metric without a value reads 0, and an undeclared value is a
// failure.
func (r *runResult) setMetrics(specs []metricSpec, values map[string]float64) {
	r.Metrics = make(map[string]metric, len(specs))
	for _, m := range specs {
		r.Metrics[m.Name] = metric{values[m.Name], m.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			r.fail("undeclared metric %q", name)
		}
	}
}

// absorb counts a child's operations into the run and reports whether
// the child itself completed.
func (r *runResult) absorb(what string, c childResult, err error) bool {
	if err != nil {
		r.Attempted++
		r.fail("%s: %v", what, err)
		return false
	}
	r.Attempted += c.Ops
	r.Failed += len(c.Failures)
	r.Failures = append(r.Failures, c.Failures...)
	return true
}

// runEndToEnd measures the four end-to-end metrics of w: a preflight
// child (oracles and must-fail arms, untimed), timed repetitions until
// cfg.seconds of verdict time is measured, and set-up-only children
// for a steady setup_s.
func runEndToEnd(cfg config, w *workload, seed int64, stderr io.Writer) runResult {
	res := runResult{Workload: w.name, Seed: seed}
	spec := childSpec{Workload: w.name, Seed: seed, Quick: cfg.quick, Dir: cfg.out}

	spec.Mode = modePreflight
	c, _, err := spawn(spec, stderr)
	res.absorb("preflight", c, err)

	var setups, verdicts, rss []float64
	want := minReps
	if cfg.quick {
		want = 1
	}
	var measured float64
	for len(verdicts) < want || (!cfg.quick && measured < cfg.seconds) {
		spec.Mode = modeRep
		c, peak, err := spawn(spec, stderr)
		if !res.absorb("repetition", c, err) || len(c.Failures) > 0 {
			break
		}
		row := repRow{SetupS: seconds(c.SetupNS), VerdictS: seconds(c.VerdictNS), States: c.States, PeakRSSByte: peak}
		res.Reps = append(res.Reps, row)
		res.Exact = c.Exact
		setups = append(setups, row.SetupS)
		verdicts = append(verdicts, row.VerdictS)
		rss = append(rss, float64(peak)/float64(c.States))
		measured += row.VerdictS
	}
	if !cfg.quick {
		for i := 0; i < setupSamples; i++ {
			spec.Mode = modeSetup
			c, _, err := spawn(spec, stderr)
			if err != nil {
				res.Attempted++
				res.fail("set-up: %v", err)
				break
			}
			setups = append(setups, seconds(c.SetupNS))
		}
	}
	if len(verdicts) > 0 {
		v := median(verdicts)
		res.setMetrics(endToEnd, map[string]float64{
			"setup_s":                  median(setups),
			"verdict_s":                v,
			"states_per_s":             float64(res.Reps[0].States) / v,
			"peak_rss_bytes_per_state": median(rss),
		})
	}
	res.Correct = res.Failed == 0 && len(verdicts) >= want
	if err := writeJSON(filepath.Join(cfg.out, "rows-"+w.name+".json"), res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
	}
	return res
}

// runTraced produces the per-layer metrics of w: one untraced
// repetition for the overhead ratios' base, then the traced child.
func runTraced(cfg config, w *workload, seed int64, stderr io.Writer) runResult {
	res := runResult{Workload: w.name, Seed: seed, Traced: true}
	spec := childSpec{Workload: w.name, Seed: seed, Quick: cfg.quick, Dir: cfg.out}

	spec.Mode = modeRep
	base, _, err := spawn(spec, stderr)
	ok := res.absorb("untraced repetition", base, err)
	spec.BaseVerdictNS = base.VerdictNS
	if w.ratioTo != "" {
		spec.Workload = w.ratioTo
		other, _, err := spawn(spec, stderr)
		ok = res.absorb("untraced "+w.ratioTo, other, err) && ok
		spec.Workload, spec.RatioVerdictNS = w.name, other.VerdictNS
	}

	spec.Mode = modeTrace
	tr, _, err := spawn(spec, stderr)
	ok = res.absorb("traced run", tr, err) && ok
	res.setMetrics(perLayer, tr.Metrics)
	res.Exact = tr.Exact
	res.Correct = res.Failed == 0 && ok
	return res
}

// confirmPins re-derives every pinned state count with
// explore.ReferenceReach on the full-size instances: the slow check
// that was run once when the counts were recorded.
func confirmPins(cfg config, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		if w.confirm == nil {
			continue
		}
		c, _, err := spawn(childSpec{Mode: modeConfirm, Workload: w.name, Dir: cfg.out}, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%-16s %d confirmed, %d failed %v\n", w.name, c.Ops-len(c.Failures), len(c.Failures), c.Failures)
		if len(c.Failures) > 0 {
			code = 1
		}
	}
	return code
}

// printRun prints every metric by name with its unit, then the one
// JSON line the driver reads.
func printRun(w io.Writer, r runResult) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s)\n", r.Workload, r.Seed, mode)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if !r.Traced {
		fmt.Fprintf(w, "%-36s %16d (verdict samples)\n", "reps", len(r.Reps))
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-36s %16d\n%-36s %16d\n%-36s %16.6g ratio\n", "ops_attempted", r.Attempted, "ops_failed", r.Failed, "failed_share", share)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
